package rtree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/page"
)

// Delete removes the object with the given ID and MBR from the tree,
// returning whether it was found. Underfull nodes are dissolved and their
// entries reinserted at their original level (Guttman's CondenseTree); a
// directory root with a single child is collapsed.
func (t *Tree) Delete(objID uint64, mbr geom.Rect) (bool, error) {
	defer t.release()
	path, err := t.findLeaf(objID, mbr)
	if err != nil {
		return false, err
	}
	if path == nil {
		return false, nil
	}
	leaf := path[len(path)-1].node
	idx := -1
	for i, e := range leaf.Entries {
		if e.ObjID == objID && e.MBR.Equal(mbr) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, fmt.Errorf("rtree: findLeaf returned a leaf without object %d", objID)
	}
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)

	if err := t.condense(path); err != nil {
		return false, err
	}
	if err := t.shrinkRoot(); err != nil {
		return false, err
	}
	t.numObjects--
	return true, nil
}

// findLeaf locates a leaf containing the object and returns the
// root-to-leaf path (t.path), or nil if the object is not stored: depth
// first through every entry whose MBR contains the object's, in order.
func (t *Tree) findLeaf(objID uint64, mbr geom.Rect) ([]pathStep, error) {
	path := t.path[:0]
	id, idx := t.root, -1
	for {
		node, err := t.hold(id)
		if err != nil {
			return nil, err
		}
		path = append(path, pathStep{node: node, parentIdx: idx})
		t.path = path
		if node.Level == 0 {
			for _, e := range node.Entries {
				if e.ObjID == objID && e.MBR.Equal(mbr) {
					return path, nil
				}
			}
		}
		next := 0
	backtrack:
		for {
			if n := path[len(path)-1].node; n.Level > 0 {
				es := n.Entries
				for i := next; i < len(es); i++ {
					if m := &es[i].MBR; m.Contains(mbr) {
						id, idx = es[i].Child, i
						break backtrack
					}
				}
			}
			next = path[len(path)-1].parentIdx + 1
			if path = path[:len(path)-1]; len(path) == 0 {
				return nil, nil
			}
		}
	}
}

// orphan is an entry of a dissolved node and the node's level.
type orphan struct {
	e     page.Entry
	level int
}

// condense walks the deletion path bottom-up, dissolving underfull
// non-root nodes and reinserting their entries afterwards.
func (t *Tree) condense(path []pathStep) error {
	t.orphans = t.orphans[:0]
	for depth := len(path) - 1; depth > 0; depth-- {
		node := path[depth].node
		parent := path[depth-1].node
		idx := path[depth].parentIdx
		if len(node.Entries) < t.params.minEntries(node.Level) {
			// Dissolve: detach from parent, queue entries for reinsertion.
			for j := len(node.Entries) - 1; j >= 0; j-- { // reversed, as read below
				t.orphans = append(t.orphans, orphan{node.Entries[j], node.Level})
			}
			parent.Entries = append(parent.Entries[:idx], parent.Entries[idx+1:]...)
			// Later steps' parentIdx values may shift; fix the sibling
			// index bookkeeping by recomputing nothing — only path[depth]
			// is removed and lower depths were already processed.
			continue
		}
		if err := t.write(node); err != nil {
			return err
		}
		parent.Entries[idx].MBR = node.MBR
	}
	if err := t.write(path[0].node); err != nil {
		return err
	}

	// Reinsert orphaned entries at their original levels, deepest first.
	for i := len(t.orphans) - 1; i >= 0; i-- {
		t.reinsertDone = 0
		if err := t.insertEntry(t.orphans[i].e, t.orphans[i].level); err != nil {
			return err
		}
	}
	return nil
}

// shrinkRoot collapses directory roots with a single child and resets an
// empty directory root to an empty leaf.
func (t *Tree) shrinkRoot() error {
	for {
		root, err := t.hold(t.root)
		if err != nil {
			return err
		}
		if root.Level == 0 {
			return nil
		}
		switch len(root.Entries) {
		case 0:
			// All objects gone: replace with a fresh empty leaf.
			leafID := t.io.Allocate()
			leaf := page.New(leafID, page.TypeData, 0, t.params.MaxDataEntries)
			if err := t.write(leaf); err != nil {
				return err
			}
			t.root = leafID
			t.height = 1
			return nil
		case 1:
			t.root = root.Entries[0].Child
			t.height--
		default:
			return nil
		}
	}
}
