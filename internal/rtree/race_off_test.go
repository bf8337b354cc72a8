//go:build !race

package rtree_test

const raceEnabled = false
