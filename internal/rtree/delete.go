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
// root-to-leaf path, or nil if the object is not stored.
func (t *Tree) findLeaf(objID uint64, mbr geom.Rect) ([]pathStep, error) {
	var dfs func(id page.ID, parentIdx int) ([]pathStep, error)
	dfs = func(id page.ID, parentIdx int) ([]pathStep, error) {
		node, err := t.read(id)
		if err != nil {
			return nil, err
		}
		step := pathStep{node: node, parentIdx: parentIdx}
		if node.Level == 0 {
			for _, e := range node.Entries {
				if e.ObjID == objID && e.MBR.Equal(mbr) {
					return []pathStep{step}, nil
				}
			}
			return nil, nil
		}
		for i, e := range node.Entries {
			if !e.MBR.Contains(mbr) {
				continue
			}
			sub, err := dfs(e.Child, i)
			if err != nil {
				return nil, err
			}
			if sub != nil {
				return append([]pathStep{step}, sub...), nil
			}
		}
		return nil, nil
	}
	return dfs(t.root, -1)
}

// condense walks the deletion path bottom-up, dissolving underfull
// non-root nodes and reinserting their entries afterwards.
func (t *Tree) condense(path []pathStep) error {
	type orphan struct {
		entries []page.Entry
		level   int
	}
	var orphans []orphan

	for depth := len(path) - 1; depth > 0; depth-- {
		node := path[depth].node
		parent := path[depth-1].node
		idx := path[depth].parentIdx
		if len(node.Entries) < t.params.minEntries(node.Level) {
			// Dissolve: detach from parent, queue entries for reinsertion.
			orphans = append(orphans, orphan{
				entries: append([]page.Entry(nil), node.Entries...),
				level:   node.Level,
			})
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
	for i := len(orphans) - 1; i >= 0; i-- {
		for _, e := range orphans[i].entries {
			t.reinsertDone = 0
			if err := t.insertEntry(e, orphans[i].level); err != nil {
				return err
			}
		}
	}
	return nil
}

// shrinkRoot collapses directory roots with a single child and resets an
// empty directory root to an empty leaf.
func (t *Tree) shrinkRoot() error {
	for {
		root, err := t.read(t.root)
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
