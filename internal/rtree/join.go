package rtree

import (
	"fmt"

	"repro/internal/buffer"
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
// one query).
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
			return fmt.Errorf("rtree: join right: %w", err)
		}
		if !nl.MBR.Intersects(nr.MBR) {
			continue
		}
		switch {
		case nl.Level == 0 && nr.Level == 0:
			for _, el := range nl.Entries {
				for _, er := range nr.Entries {
					if el.MBR.Intersects(er.MBR) {
						if !fn(JoinPair{Left: el, Right: er}) {
							return nil
						}
					}
				}
			}
		case nl.Level > 0 && (nr.Level == 0 || nl.Level >= nr.Level):
			// Expand the left (taller) node against the right node.
			for _, el := range nl.Entries {
				if el.MBR.Intersects(nr.MBR) {
					stack = append(stack, task{el.Child, tk.r})
				}
			}
		default:
			// Expand the right node.
			for _, er := range nr.Entries {
				if er.MBR.Intersects(nl.MBR) {
					stack = append(stack, task{tk.l, er.Child})
				}
			}
		}
	}
	return nil
}
