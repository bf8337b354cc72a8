package rtree

import (
	"fmt"
	"math/bits"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
)

// JoinPair is one result of a spatial join: the IDs and MBRs of two
// intersecting objects from the left and right tree.
type JoinPair struct {
	Left, Right page.Entry
}

// JoinVisit consumes join results; returning false stops the join early.
type JoinVisit func(p JoinPair) bool

// Join computes the spatial (intersection) join of two R*-trees by
// synchronized depth-first traversal (Brinkhoff, Kriegel & Seeger,
// SIGMOD 1994): a pair of nodes is expanded only if their MBRs intersect,
// and only entry pairs whose MBRs intersect descend. Pages are read
// through the respective Readers, so the buffer policies under study pay
// the join's I/O — the paper's future-work item 2.
//
// Both traversals share one access context: all page requests of a join
// count as correlated, matching the paper's definition (one operation =
// one query). Both pages of a pair are released once it has been
// scanned, also when the join stops early or the right read fails.
func Join(left, right *Tree, rdL, rdR Reader, ctx buffer.AccessContext, fn JoinVisit) error {
	type task struct {
		l, r page.ID
	}
	stack := []task{{left.root, right.root}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nl, err := rdL.Get(tk.l, ctx)
		if err != nil {
			return fmt.Errorf("rtree: join left: %w", err)
		}
		nr, err := rdR.Get(tk.r, ctx)
		if err != nil {
			nl.Release()
			return fmt.Errorf("rtree: join right: %w", err)
		}
		// A pair whose MBRs do not intersect is skipped; in one that
		// passed Intersects, neither node's MBR is empty, and each serves
		// as eachHit's probe as it is.
		stop := false
		switch {
		case !nl.MBR.Intersects(nr.MBR):
		case nl.Level == 0 && nr.Level == 0:
			for _, el := range nl.Entries {
				if stop = !el.MBR.IsEmpty() && !eachHit(nr.Entries, el.MBR, func(er *page.Entry) bool {
					return fn(JoinPair{Left: el, Right: *er})
				}); stop {
					break
				}
			}
		case nl.Level > 0 && (nr.Level == 0 || nl.Level >= nr.Level):
			// Expand the left (taller) node against the right node.
			eachHit(nl.Entries, nr.MBR, func(el *page.Entry) bool {
				stack = append(stack, task{el.Child, tk.r})
				return true
			})
		default:
			// Expand the right node.
			eachHit(nr.Entries, nl.MBR, func(er *page.Entry) bool {
				stack = append(stack, task{tk.l, er.Child})
				return true
			})
		}
		nl.Release()
		nr.Release()
		if stop {
			return nil
		}
	}
	return nil
}

// eachHit calls fn with each entry of es whose MBR meets q and is not
// empty, in index order, until fn returns false, and reports whether fn
// never did. scanNode takes es 64 entries a call and an entry's emptiness
// is tested only on a hit, so q must not be empty. Search runs the same
// loop inline: a call of fn per hit made point queries 5–10 % slower
// (DESIGN.md §5a.5).
func eachHit(es []page.Entry, q geom.Rect, fn func(e *page.Entry) bool) bool {
	for lo := 0; lo < len(es); lo += 64 {
		part := es[lo:min(lo+64, len(es))]
		for m := scanNode(part, q); m != 0; m &= m - 1 {
			if e := &part[bits.TrailingZeros64(m)]; !e.MBR.IsEmpty() && !fn(e) {
				return false
			}
		}
	}
	return true
}
