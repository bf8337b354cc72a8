package rtree

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
)

// Reader supplies tree pages to queries. Every buffer.Pool composition
// (Engine, LockedEngine, Router, AsyncPool) implements it, so queries
// can be routed
// through a buffer whose replacement policy is under study — including
// a shared concurrent pool serving many query goroutines; StoreReader
// bypasses buffering.
//
// A page from Get (or a pool's Fix) carries one reference for the caller.
// Search releases each node once it has scanned it, so a FileStore may
// decode into the node's memory once the pool evicted it clean; a caller
// that never releases — Join, the mutation path — keeps its pages intact.
type Reader interface {
	Get(id page.ID, ctx buffer.AccessContext) (*page.Page, error)
}

// StoreReader adapts a storage.Store into a Reader (every access is a
// physical read).
type StoreReader struct {
	Store interface {
		Read(id page.ID) (*page.Page, error)
	}
}

// Get implements Reader.
func (r StoreReader) Get(id page.ID, _ buffer.AccessContext) (*page.Page, error) {
	return r.Store.Read(id)
}

// Visit is called for every matching data entry. Returning false stops the
// query early.
type Visit func(e page.Entry) bool

// Search reports all data entries whose MBR intersects query, reading
// pages through rd under the given access context. This is the window
// query of the paper's experiments (a point query is a degenerate
// window); the traversal is depth-first.
func (t *Tree) Search(rd Reader, ctx buffer.AccessContext, query geom.Rect, fn Visit) error {
	// The pending IDs start on the goroutine's stack; 64 slots hold the
	// deepest traversal of every query set up to W-33 at the default
	// scale, and append moves a larger one to the heap.
	var pending [64]page.ID
	stack := append(pending[:0], t.root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, err := rd.Get(id, ctx)
		if err != nil {
			return fmt.Errorf("rtree: search: %w", err)
		}
		if node.Level == 0 {
			for _, e := range node.Entries {
				if query.Intersects(e.MBR) && !fn(e) {
					stack = stack[:0] // fn stopped the query
					break
				}
			}
		} else {
			for _, e := range node.Entries {
				if query.Intersects(e.MBR) {
					stack = append(stack, e.Child)
				}
			}
		}
		node.Release()
	}
	return nil
}
