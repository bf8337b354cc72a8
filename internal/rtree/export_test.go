package rtree

import "repro/internal/page"

// Walk exposes the depth-first walk over every reachable node to the
// external shape test (which imports experiment and so cannot live in
// this package).
func (t *Tree) Walk(fn func(*page.Page) error) error { return t.walk(t.root, fn) }
