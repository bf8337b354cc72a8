package buffer

import "testing"

// ForceDeferral is forceDeferral for the external tests, which build
// R*-trees and so cannot live in this package.
func ForceDeferral(t testing.TB, pool Pool) { forceDeferral(t, pool) }
