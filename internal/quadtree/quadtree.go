// Package quadtree implements the third spatial-access-method family the
// paper names in §2.3 ("In a quadtree, the quadtree cells match these
// entries"): a page-backed MX-CIF quadtree storing rectangles.
//
// Every node is one page covering a quadrant cell. An object lives in the
// lowest node whose cell fully contains its MBR; objects straddling a
// centre line stay in the inner node. A node page mixes two entry kinds:
// entries with Child ≠ page.InvalidID point to the four quadrant
// children, the rest are object entries. Pages carry MBRs and entry
// statistics like every other page, so all replacement policies apply
// unchanged; queries read pages through rtree.Reader, so a buffer manager
// can front the tree.
package quadtree

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Params configure the quadtree.
type Params struct {
	// MaxEntries is the number of object entries a node may hold before
	// it splits (children entries do not count against it).
	MaxEntries int
	// MaxDepth bounds the recursion; nodes at MaxDepth grow beyond
	// MaxEntries instead of splitting.
	MaxDepth int
}

// DefaultParams mirror the paper's data-page capacity.
func DefaultParams() Params {
	return Params{MaxEntries: 42, MaxDepth: 12}
}

// Tree is a page-backed MX-CIF quadtree over a square cell hierarchy
// spanning the data space.
type Tree struct {
	store  storage.Store
	params Params
	space  geom.Rect
	root   page.ID
	count  int
}

// New creates an empty quadtree over the given space.
func New(store storage.Store, space geom.Rect, params Params) (*Tree, error) {
	if store == nil {
		return nil, errors.New("quadtree: nil store")
	}
	if !space.Valid() {
		return nil, fmt.Errorf("quadtree: invalid space %v", space)
	}
	if params.MaxEntries < 4 || params.MaxDepth < 1 {
		return nil, fmt.Errorf("quadtree: bad params %+v", params)
	}
	rootID := store.Allocate()
	root := page.New(rootID, page.TypeData, params.MaxDepth, params.MaxEntries)
	if err := store.Write(root); err != nil {
		return nil, err
	}
	return &Tree{store: store, params: params, space: space, root: rootID}, nil
}

// quadrant returns the cell of child i (0 = SW, 1 = SE, 2 = NW, 3 = NE).
func quadrant(cell geom.Rect, i int) geom.Rect {
	cx := (cell.MinX + cell.MaxX) / 2
	cy := (cell.MinY + cell.MaxY) / 2
	switch i {
	case 0:
		return geom.Rect{MinX: cell.MinX, MinY: cell.MinY, MaxX: cx, MaxY: cy}
	case 1:
		return geom.Rect{MinX: cx, MinY: cell.MinY, MaxX: cell.MaxX, MaxY: cy}
	case 2:
		return geom.Rect{MinX: cell.MinX, MinY: cy, MaxX: cx, MaxY: cell.MaxY}
	default:
		return geom.Rect{MinX: cx, MinY: cy, MaxX: cell.MaxX, MaxY: cell.MaxY}
	}
}

// childEntries returns the indices of child entries in a node, in
// quadrant order (entries with Child ≠ InvalidID, of which there are 0 or
// 4).
func childEntries(n *page.Page) []int {
	var idx []int
	for i, e := range n.Entries {
		if e.Child != page.InvalidID {
			idx = append(idx, i)
		}
	}
	return idx
}

// Insert adds an object with the given MBR (must lie inside the space).
func (t *Tree) Insert(objID uint64, mbr geom.Rect) error {
	if !mbr.Valid() {
		return fmt.Errorf("quadtree: insert %d: invalid MBR %v", objID, mbr)
	}
	if !t.space.Contains(mbr) {
		return fmt.Errorf("quadtree: insert %d: MBR %v outside space", objID, mbr)
	}
	if err := t.insert(t.root, t.space, t.params.MaxDepth, objID, mbr); err != nil {
		return err
	}
	t.count++
	return nil
}

// insert descends to the lowest cell containing mbr.
func (t *Tree) insert(id page.ID, cell geom.Rect, level int, objID uint64, mbr geom.Rect) error {
	node, err := t.store.Read(id)
	if err != nil {
		return err
	}
	// Descend into a containing child, if the node has children.
	if kids := childEntries(node); len(kids) > 0 {
		for qi, ei := range kids {
			q := quadrant(cell, qi)
			if q.Contains(mbr) {
				// Child MBRs in the parent entry track content; update
				// after the recursive insert.
				if err := t.insert(node.Entries[ei].Child, q, level-1, objID, mbr); err != nil {
					return err
				}
				child, err := t.store.Read(node.Entries[ei].Child)
				if err != nil {
					return err
				}
				node.Entries[ei].MBR = child.MBR
				node.RecomputeFast()
				return t.store.Write(node)
			}
		}
	}
	// Store here.
	node.Entries = append(node.Entries, page.Entry{MBR: mbr, ObjID: objID})
	if t.objectCount(node) > t.params.MaxEntries && level > 0 && len(childEntries(node)) == 0 {
		if err := t.split(node, cell, level); err != nil {
			return err
		}
	}
	node.RecomputeFast()
	return t.store.Write(node)
}

// objectCount returns the number of object entries in a node.
func (t *Tree) objectCount(n *page.Page) int {
	c := 0
	for _, e := range n.Entries {
		if e.Child == page.InvalidID {
			c++
		}
	}
	return c
}

// split creates the four children of a leaf node and pushes down every
// object entry fully contained in one quadrant.
func (t *Tree) split(node *page.Page, cell geom.Rect, level int) error {
	children := make([]*page.Page, 4)
	for qi := range children {
		id := t.store.Allocate()
		children[qi] = page.New(id, page.TypeData, level-1, t.params.MaxEntries)
	}
	var keep []page.Entry
	for _, e := range node.Entries {
		placed := false
		for qi, child := range children {
			if quadrant(cell, qi).Contains(e.MBR) {
				child.Entries = append(child.Entries, e)
				placed = true
				break
			}
		}
		if !placed {
			keep = append(keep, e)
		}
	}
	node.Entries = keep
	node.Type = page.TypeDirectory
	for _, child := range children {
		child.RecomputeFast()
		if err := t.store.Write(child); err != nil {
			return err
		}
		node.Entries = append(node.Entries, page.Entry{MBR: child.MBR, Child: child.ID})
	}
	return nil
}

// Search reports all object entries whose MBR intersects the query
// window, reading pages through rd.
func (t *Tree) Search(rd rtree.Reader, ctx buffer.AccessContext, query geom.Rect, fn rtree.Visit) error {
	type task struct {
		id   page.ID
		cell geom.Rect
	}
	stack := []task{{id: t.root, cell: t.space}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, err := rd.Get(tk.id, ctx)
		if err != nil {
			return fmt.Errorf("quadtree: search: %w", err)
		}
		qi := 0
		for _, e := range node.Entries {
			if e.Child != page.InvalidID {
				q := quadrant(tk.cell, qi)
				qi++
				if query.Intersects(q) && query.Intersects(e.MBR) {
					stack = append(stack, task{id: e.Child, cell: q})
				}
				continue
			}
			if query.Intersects(e.MBR) {
				if !fn(e) {
					return nil
				}
			}
		}
	}
	return nil
}

// Stats summarizes the structure.
type Stats struct {
	Pages    int
	DirPages int
	Objects  int
	MaxDepth int // deepest node below the root, in levels used
}

// Stats walks the tree.
func (t *Tree) Stats() (Stats, error) {
	st := Stats{Objects: t.count}
	var walk func(id page.ID, depth int) error
	walk = func(id page.ID, depth int) error {
		node, err := t.store.Read(id)
		if err != nil {
			return err
		}
		st.Pages++
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		kids := childEntries(node)
		if len(kids) > 0 {
			st.DirPages++
		}
		for _, ei := range kids {
			if err := walk(node.Entries[ei].Child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(t.root, 0)
	return st, err
}

// FinalizeStats recomputes full page statistics (entry overlap included)
// on every node.
func (t *Tree) FinalizeStats() error {
	var walk func(id page.ID) error
	walk = func(id page.ID) error {
		node, err := t.store.Read(id)
		if err != nil {
			return err
		}
		node.Recompute()
		if err := t.store.Write(node); err != nil {
			return err
		}
		for _, ei := range childEntries(node) {
			if err := walk(node.Entries[ei].Child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root)
}
