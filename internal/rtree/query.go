package rtree

import (
	"fmt"
	"math/bits"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
)

// Reader supplies tree pages to queries. Every buffer.Pool (Engine,
// Shared) implements it, so queries can be routed through a buffer whose
// replacement policy is under study — including a shared concurrent pool
// serving many query goroutines; StoreReader bypasses buffering.
//
// A page from Get (or a pool's Fix) carries one reference for the caller.
// Search and Join release each node once they have scanned it, and Insert
// and Delete release all they read when they return, so a FileStore may
// decode into a node's memory once the pool evicted it clean.
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
//
// Each node is scanned by scanNode, at most 64 entries a call, and its
// hits are taken in index order. An entry matches when its MBR meets the
// query and is not empty: the query's own emptiness is tested once, not
// per entry, an entry's only on a hit, and an empty query still reads and
// releases the root (DESIGN.md §5a.5).
func (t *Tree) Search(rd Reader, ctx buffer.AccessContext, query geom.Rect, fn Visit) error {
	// The pending IDs start on the goroutine's stack; 64 slots hold the
	// deepest traversal of every query set up to W-33 at the default
	// scale, and append moves a larger one to the heap.
	var pending [64]page.ID
	stack := append(pending[:0], t.root)
	empty := query.IsEmpty()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, err := rd.Get(id, ctx)
		if err != nil {
			return fmt.Errorf("rtree: search: %w", err)
		}
		es := node.Entries
		if empty {
			es = nil
		}
	scan:
		for lo := 0; lo < len(es); lo += 64 {
			part := es[lo:min(lo+64, len(es))]
			for m := scanNode(part, query); m != 0; m &= m - 1 {
				switch e := &part[bits.TrailingZeros64(m)]; {
				case e.MBR.IsEmpty():
				case node.Level > 0:
					stack = append(stack, e.Child)
				case !fn(*e):
					stack = stack[:0] // fn stopped the query
					break scan
				}
			}
		}
		node.Release()
	}
	return nil
}
