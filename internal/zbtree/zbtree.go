// Package zbtree implements the second spatial-access-method family the
// paper names in §2.3: z-values stored in a B-tree (Orenstein's PROBE
// scheme). Object locations are mapped to a space-filling Z-order curve
// and indexed in a B+-tree; window queries decompose the query rectangle
// into z-ranges and scan them.
//
// The index reuses the page model of package page — leaf entries carry the
// object MBR, so every spatial replacement criterion (A, EA, M, EM, EO)
// and the type/level-based policies work on it unchanged. Pages are read
// through rtree.Reader, so a buffer manager can sit in front exactly as
// for the R*-tree; the ablation benchmarks compare the policies across
// both SAMs.
//
// Representation note: directory entries reuse the otherwise-unused ObjID
// field as the separator z-value of their subtree (the minimum z below),
// keeping one page codec for both access methods.
package zbtree

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// zBits is the per-axis resolution of the Z-curve: 16 bits per axis,
// interleaved into a 32-bit z-value.
const zBits = 16

// encode maps a point to its z-value by bit interleaving the quantized
// coordinates (x in the even bits, y in the odd bits).
func encode(p geom.Point, space geom.Rect) uint32 {
	qx := quantize(p.X, space.MinX, space.MaxX)
	qy := quantize(p.Y, space.MinY, space.MaxY)
	return interleave(qx) | interleave(qy)<<1
}

// quantize maps v ∈ [lo, hi] to a zBits-bit integer.
func quantize(v, lo, hi float64) uint32 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	q := uint32(f * float64((1<<zBits)-1))
	return q
}

// interleave spreads the low 16 bits of v into the even bit positions.
func interleave(v uint32) uint32 {
	v &= 0xFFFF
	v = (v | v<<8) & 0x00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// Params configure the B+-tree fan-outs. Defaults mirror the paper's
// R*-tree page capacities.
type Params struct {
	MaxDirEntries  int
	MaxLeafEntries int
}

// DefaultParams returns fan-outs matching the paper's page sizes.
func DefaultParams() Params {
	return Params{MaxDirEntries: 51, MaxLeafEntries: 42}
}

// Tree is a B+-tree over z-values backed by a page store. It supports
// insertion and (window) queries; like the published z-ordering studies,
// it is a read-optimized index — deletion is not implemented.
type Tree struct {
	store  storage.Store
	params Params
	space  geom.Rect
	root   page.ID
	height int
	count  int
}

// New creates an empty z-B+-tree over the given data space.
func New(store storage.Store, space geom.Rect, params Params) (*Tree, error) {
	if store == nil {
		return nil, errors.New("zbtree: nil store")
	}
	if !space.Valid() {
		return nil, fmt.Errorf("zbtree: invalid space %v", space)
	}
	if params.MaxDirEntries < 4 || params.MaxLeafEntries < 4 {
		return nil, fmt.Errorf("zbtree: fan-outs must be ≥ 4")
	}
	rootID := store.Allocate()
	root := page.New(rootID, page.TypeData, 0, params.MaxLeafEntries)
	if err := store.Write(root); err != nil {
		return nil, err
	}
	return &Tree{store: store, params: params, space: space, root: rootID, height: 1}, nil
}

// zOf returns the z-value of an entry: leaf entries are keyed by the
// z-value of their MBR centre; directory entries carry their separator in
// ObjID.
func (t *Tree) zOfLeaf(e page.Entry) uint32 {
	return encode(e.MBR.Center(), t.space)
}

// maxEntries returns the fan-out at a level.
func (t *Tree) maxEntries(level int) int {
	if level == 0 {
		return t.params.MaxLeafEntries
	}
	return t.params.MaxDirEntries
}

// Insert adds an object. Entries within a page stay sorted by z-value.
func (t *Tree) Insert(objID uint64, mbr geom.Rect) error {
	if !mbr.Valid() {
		return fmt.Errorf("zbtree: insert object %d: invalid MBR %v", objID, mbr)
	}
	z := encode(mbr.Center(), t.space)

	// Descend, remembering the path.
	type step struct {
		node *page.Page
		idx  int
	}
	var path []step
	node, err := t.store.Read(t.root)
	if err != nil {
		return err
	}
	for node.Level > 0 {
		idx := t.childIndex(node, z)
		child, err := t.store.Read(node.Entries[idx].Child)
		if err != nil {
			return err
		}
		path = append(path, step{node: node, idx: idx})
		node = child
	}

	// Insert into the leaf, keeping z order.
	e := page.Entry{MBR: mbr, ObjID: objID}
	pos := sort.Search(len(node.Entries), func(i int) bool {
		return t.zOfLeaf(node.Entries[i]) > z
	})
	node.Entries = append(node.Entries, page.Entry{})
	copy(node.Entries[pos+1:], node.Entries[pos:])
	node.Entries[pos] = e
	t.count++

	// Split upward while over capacity.
	for {
		if len(node.Entries) <= t.maxEntries(node.Level) {
			node.RecomputeFast()
			if err := t.store.Write(node); err != nil {
				return err
			}
			// Refresh ancestor MBRs and separators bottom-up.
			child := node
			for i := len(path) - 1; i >= 0; i-- {
				parent := path[i].node
				parent.Entries[path[i].idx].MBR = child.MBR
				parent.Entries[path[i].idx].ObjID = uint64(t.minZ(child))
				parent.RecomputeFast()
				if err := t.store.Write(parent); err != nil {
					return err
				}
				child = parent
			}
			return nil
		}
		// Split in the middle.
		mid := len(node.Entries) / 2
		sibID := t.store.Allocate()
		sib := page.New(sibID, node.Type, node.Level, t.maxEntries(node.Level))
		sib.Entries = append(sib.Entries, node.Entries[mid:]...)
		node.Entries = node.Entries[:mid]
		node.RecomputeFast()
		sib.RecomputeFast()
		if err := t.store.Write(node); err != nil {
			return err
		}
		if err := t.store.Write(sib); err != nil {
			return err
		}

		sibEntry := page.Entry{MBR: sib.MBR, Child: sibID, ObjID: uint64(t.minZ(sib))}
		if len(path) == 0 {
			// Grow a new root.
			rootID := t.store.Allocate()
			root := page.New(rootID, page.TypeDirectory, node.Level+1, t.params.MaxDirEntries)
			root.Entries = append(root.Entries,
				page.Entry{MBR: node.MBR, Child: node.ID, ObjID: uint64(t.minZ(node))},
				sibEntry,
			)
			root.RecomputeFast()
			if err := t.store.Write(root); err != nil {
				return err
			}
			t.root = rootID
			t.height++
			return nil
		}
		parent := path[len(path)-1].node
		idx := path[len(path)-1].idx
		parent.Entries[idx].MBR = node.MBR
		parent.Entries[idx].ObjID = uint64(t.minZ(node))
		// Insert the sibling entry right after its left neighbour.
		parent.Entries = append(parent.Entries, page.Entry{})
		copy(parent.Entries[idx+2:], parent.Entries[idx+1:])
		parent.Entries[idx+1] = sibEntry
		path = path[:len(path)-1]
		node = parent
	}
}

// minZ returns the separator (minimum z) of a node.
func (t *Tree) minZ(n *page.Page) uint32 {
	if len(n.Entries) == 0 {
		return 0
	}
	if n.Level == 0 {
		return t.zOfLeaf(n.Entries[0])
	}
	return uint32(n.Entries[0].ObjID)
}

// childIndex returns the index of the child whose key range covers z: the
// last entry with separator ≤ z (or 0).
func (t *Tree) childIndex(node *page.Page, z uint32) int {
	idx := sort.Search(len(node.Entries), func(i int) bool {
		return uint32(node.Entries[i].ObjID) > z
	}) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// rangeSearch reports all leaf entries with z-value in [zlo, zhi], reading
// pages through rd.
func (t *Tree) rangeSearch(rd rtree.Reader, ctx buffer.AccessContext, zlo, zhi uint32, fn rtree.Visit) error {
	var walk func(id page.ID) (bool, error)
	walk = func(id page.ID) (bool, error) {
		node, err := rd.Get(id, ctx)
		if err != nil {
			return false, err
		}
		if node.Level == 0 {
			for _, e := range node.Entries {
				z := t.zOfLeaf(e)
				if z < zlo || z > zhi {
					continue
				}
				if !fn(e) {
					return false, nil
				}
			}
			return true, nil
		}
		for i, e := range node.Entries {
			sep := uint32(e.ObjID)
			if sep > zhi {
				break
			}
			// The child covers [sep, nextSep); skip it if entirely below.
			if i+1 < len(node.Entries) && uint32(node.Entries[i+1].ObjID) <= zlo {
				continue
			}
			cont, err := walk(e.Child)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := walk(t.root)
	return err
}

// WindowQuery reports all entries whose MBR intersects the window. The
// window is decomposed into z-ranges by recursive quadrant splitting;
// each range is scanned and filtered by exact MBR intersection.
func (t *Tree) WindowQuery(rd rtree.Reader, ctx buffer.AccessContext, window geom.Rect, fn rtree.Visit) error {
	ranges := decomposeWindow(window, t.space, 8)
	for _, r := range ranges {
		stop := false
		err := t.rangeSearch(rd, ctx, r.Lo, r.Hi, func(e page.Entry) bool {
			if e.MBR.Intersects(window) {
				if !fn(e) {
					stop = true
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// zRange is a closed interval of z-values.
type zRange struct {
	Lo, Hi uint32
}

// decomposeWindow covers the window with z-ranges by recursively
// splitting the space into quadrants down to maxDepth levels: a quadrant
// fully inside the window contributes its whole (contiguous) z-range; a
// partially overlapping quadrant is split further, or emitted whole at
// the depth limit. Adjacent ranges are merged.
func decomposeWindow(window, space geom.Rect, maxDepth int) []zRange {
	var out []zRange
	var rec func(cell geom.Rect, zlo, zhi uint64, depth int)
	rec = func(cell geom.Rect, zlo, zhi uint64, depth int) {
		if !cell.Intersects(window) {
			return
		}
		if window.Contains(cell) || depth >= maxDepth || zhi-zlo < 4 {
			out = append(out, zRange{Lo: uint32(zlo), Hi: uint32(zhi)})
			return
		}
		cx := (cell.MinX + cell.MaxX) / 2
		cy := (cell.MinY + cell.MaxY) / 2
		quarter := (zhi - zlo + 1) / 4
		// Z-curve quadrant order: (low-x, low-y), (high-x, low-y),
		// (low-x, high-y), (high-x, high-y) — x in the even bits.
		quads := [4]geom.Rect{
			{MinX: cell.MinX, MinY: cell.MinY, MaxX: cx, MaxY: cy},
			{MinX: cx, MinY: cell.MinY, MaxX: cell.MaxX, MaxY: cy},
			{MinX: cell.MinX, MinY: cy, MaxX: cx, MaxY: cell.MaxY},
			{MinX: cx, MinY: cy, MaxX: cell.MaxX, MaxY: cell.MaxY},
		}
		for i, q := range quads {
			lo := zlo + uint64(i)*quarter
			rec(q, lo, lo+quarter-1, depth+1)
		}
	}
	rec(space, 0, (1<<(2*zBits))-1, 0)

	// Merge adjacent/overlapping ranges (the recursion emits in z order).
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi+1 {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Stats summarizes the tree structure.
type Stats struct {
	Height    int
	DirPages  int
	LeafPages int
	Objects   int
}

// TotalPages returns the page count.
func (s Stats) TotalPages() int { return s.DirPages + s.LeafPages }

// Stats walks the tree.
func (t *Tree) Stats() (Stats, error) {
	st := Stats{Height: t.height, Objects: t.count}
	var walk func(id page.ID) error
	walk = func(id page.ID) error {
		node, err := t.store.Read(id)
		if err != nil {
			return err
		}
		if node.Level == 0 {
			st.LeafPages++
			return nil
		}
		st.DirPages++
		for _, e := range node.Entries {
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(t.root)
	return st, err
}

// FinalizeStats recomputes full page statistics (including entry overlap)
// for every node, enabling the EO criterion.
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
		if node.Level == 0 {
			return nil
		}
		for _, e := range node.Entries {
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root)
}
