package rtree

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/page"
)

// Insert adds an object with the given MBR to the tree, using the full
// R*-tree insertion algorithm: ChooseSubtree with minimum overlap
// enlargement above the leaves, forced reinsertion on the first overflow
// of each level, and the R* topological split otherwise.
func (t *Tree) Insert(objID uint64, mbr geom.Rect) error {
	if !mbr.Valid() {
		return fmt.Errorf("rtree: insert object %d: invalid MBR %v", objID, mbr)
	}
	t.reinsertDone = 0
	if err := t.insertEntry(page.Entry{MBR: mbr, ObjID: objID}, 0); err != nil {
		return err
	}
	t.numObjects++
	return nil
}

// pathStep is one node on the root-to-target descent, together with the
// index of its entry within its parent (-1 for the root).
type pathStep struct {
	node      *page.Page
	parentIdx int
}

// insertEntry places e into a node at the given level, handling overflow.
// Forced-reinsertion state (reinsertDone) spans the whole top-level
// insertion, including recursive reinsertions.
func (t *Tree) insertEntry(e page.Entry, level int) error {
	path, err := t.choosePath(e.MBR, level)
	if err != nil {
		return err
	}
	leafDepth := len(path) - 1
	node := path[leafDepth].node
	node.Entries = append(node.Entries, e)
	if len(node.Entries) > t.params.maxEntries(node.Level) {
		return t.overflowTreatment(path, leafDepth)
	}
	return t.writeAndAdjust(path, leafDepth)
}

// choosePath descends from the root to a node at the target level,
// applying the R* ChooseSubtree criteria, and returns the full path.
func (t *Tree) choosePath(r geom.Rect, level int) ([]pathStep, error) {
	node, err := t.read(t.root)
	if err != nil {
		return nil, err
	}
	path := make([]pathStep, 1, t.height)
	path[0] = pathStep{node: node, parentIdx: -1}
	for node.Level > level {
		idx := chooseSubtree(node, r)
		child, err := t.read(node.Entries[idx].Child)
		if err != nil {
			return nil, err
		}
		path = append(path, pathStep{node: child, parentIdx: idx})
		node = child
	}
	if node.Level != level {
		return nil, fmt.Errorf("rtree: no node at level %d (tree height %d)", level, t.height)
	}
	return path, nil
}

// chooseSubtree picks the entry of node whose subtree should receive a
// rectangle r. If the children are leaves, the entry needing the least
// overlap enlargement wins (ties: least area enlargement, then smallest
// area); otherwise the least area enlargement (ties: smallest area).
func chooseSubtree(node *page.Page, r geom.Rect) int {
	if node.Level == 1 {
		return chooseByOverlap(node, r)
	}
	return chooseByArea(node, r)
}

// chooseByArea returns the entry with minimum area enlargement.
func chooseByArea(node *page.Page, r geom.Rect) int {
	best := 0
	bestEnl := node.Entries[0].MBR.Enlargement(r)
	bestArea := node.Entries[0].MBR.Area()
	for i := 1; i < len(node.Entries); i++ {
		enl := node.Entries[i].MBR.Enlargement(r)
		area := node.Entries[i].MBR.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseByOverlap returns the entry with minimum overlap enlargement. It
// makes exactly the choices of the textbook double loop (the oracle in
// choose_test.go) but leaves out what cannot change them: terms that are
// exactly zero, and candidates that can no longer win or tie. The terms
// it keeps are added in the textbook's order, so ovl is the same float
// (DESIGN.md §5a.4; approximate variants would change the tree's shape).
func chooseByOverlap(node *page.Page, r geom.Rect) int {
	entries := node.Entries
	best := -1
	var bestOvl, bestEnl, bestArea float64
candidates:
	for i := range entries {
		e := entries[i].MBR
		var ovl float64
		// r inside e: the enlarged MBR is e and every term is x − x.
		if !e.Contains(r) {
			grown := e.Union(r)
			for j := range entries {
				m := entries[j].MBR
				// m disjoint from grown is disjoint from e ⊆ grown: 0 − 0.
				if j == i || !grown.Intersects(m) {
					continue
				}
				ovl += grown.OverlapArea(m) - e.OverlapArea(m)
				// e ⊆ grown and rounding is monotone, so no term is
				// negative and partial sums never decrease: above the
				// best complete sum, i can neither win nor tie.
				if best >= 0 && ovl > bestOvl {
					continue candidates
				}
			}
		}
		enl := e.Enlargement(r)
		area := e.Area()
		if best < 0 || ovl < bestOvl || (ovl == bestOvl && enl < bestEnl) ||
			(ovl == bestOvl && enl == bestEnl && area < bestArea) {
			best, bestOvl, bestEnl, bestArea = i, ovl, enl, area
		}
	}
	return best
}

// writeAndAdjust persists the node at the given depth and propagates its
// MBR change through the ancestors' entries up to the root.
func (t *Tree) writeAndAdjust(path []pathStep, depth int) error {
	if err := t.write(path[depth].node); err != nil {
		return err
	}
	for i := depth; i > 0; i-- {
		child := path[i]
		parent := path[i-1].node
		if parent.Entries[child.parentIdx].MBR.Equal(child.node.MBR) {
			return nil // no further change propagates
		}
		parent.Entries[child.parentIdx].MBR = child.node.MBR
		if err := t.write(parent); err != nil {
			return err
		}
	}
	return nil
}

// overflowTreatment handles a node at path[depth] holding M+1 entries:
// forced reinsertion on the first overflow of its level during this
// insertion (never for the root), a split otherwise.
func (t *Tree) overflowTreatment(path []pathStep, depth int) error {
	node := path[depth].node
	bit := uint64(1) << node.Level
	if node.ID != t.root && t.reinsertDone&bit == 0 {
		t.reinsertDone |= bit
		return t.reinsert(path, depth)
	}
	return t.split(path, depth)
}

// reinsert removes the ReinsertFrac share of entries farthest from the
// node's MBR centre and re-inserts them, closest first ("close reinsert",
// the variant the R*-tree authors found best).
func (t *Tree) reinsert(path []pathStep, depth int) error {
	node := path[depth].node
	center := geom.MBR(entryMBRs(node.Entries)...).Center()

	type distEntry struct {
		e page.Entry
		d float64
	}
	des := make([]distEntry, len(node.Entries))
	for i, e := range node.Entries {
		c := e.MBR.Center()
		dx, dy := c.X-center.X, c.Y-center.Y
		des[i] = distEntry{e: e, d: dx*dx + dy*dy}
	}
	// Not stable, on purpose left alone: which of two entries at equal
	// distance goes first decides where they end up, so the permutation
	// this sort happens to produce is part of the tree's shape (and of
	// every figure). Another algorithm, even a stable one, would move them.
	sort.Slice(des, func(i, j int) bool { return des[i].d > des[j].d })

	p := int(t.params.ReinsertFrac * float64(len(des)))
	if p < 1 {
		p = 1
	}
	removed := des[:p]
	node.Entries = node.Entries[:0]
	for _, de := range des[p:] {
		node.Entries = append(node.Entries, de.e)
	}
	if err := t.writeAndAdjust(path, depth); err != nil {
		return err
	}
	// Close reinsert: smallest distance first.
	for i := len(removed) - 1; i >= 0; i-- {
		if err := t.insertEntry(removed[i].e, node.Level); err != nil {
			return err
		}
	}
	return nil
}

// split divides the overflowing node at path[depth] using the R* split
// and installs the new sibling in the parent, propagating overflow.
func (t *Tree) split(path []pathStep, depth int) error {
	node := path[depth].node
	m := t.params.minEntries(node.Level)
	group1, group2 := rstarSplit(node.Entries, m)

	node.Entries = group1
	sibID := t.io.Allocate()
	sib := page.New(sibID, node.Type, node.Level, len(group2))
	sib.Entries = append(sib.Entries, group2...)

	if err := t.write(node); err != nil {
		return err
	}
	if err := t.write(sib); err != nil {
		return err
	}

	if node.ID == t.root {
		return t.growRoot(node, sib)
	}

	parent := path[depth-1].node
	parent.Entries[path[depth].parentIdx].MBR = node.MBR
	parent.Entries = append(parent.Entries, page.Entry{MBR: sib.MBR, Child: sib.ID})
	if len(parent.Entries) > t.params.maxEntries(parent.Level) {
		return t.overflowTreatment(path, depth-1)
	}
	return t.writeAndAdjust(path, depth-1)
}

// growRoot replaces the root with a new directory node over the two split
// halves.
func (t *Tree) growRoot(left, right *page.Page) error {
	if t.height >= maxHeight {
		return fmt.Errorf("rtree: tree height limit %d reached", maxHeight)
	}
	rootID := t.io.Allocate()
	root := page.New(rootID, page.TypeDirectory, left.Level+1, t.params.MaxDirEntries)
	root.Entries = append(root.Entries,
		page.Entry{MBR: left.MBR, Child: left.ID},
		page.Entry{MBR: right.MBR, Child: right.ID},
	)
	if err := t.write(root); err != nil {
		return err
	}
	t.root = rootID
	t.height++
	return nil
}

// entryMBRs extracts the MBRs of a slice of entries.
func entryMBRs(entries []page.Entry) []geom.Rect {
	rs := make([]geom.Rect, len(entries))
	for i, e := range entries {
		rs[i] = e.MBR
	}
	return rs
}

// rstarSplit partitions M+1 entries into two groups following the R*
// topological split: the split axis minimizes the margin sum over all
// distributions; the distribution on that axis minimizes the overlap
// between the groups, then their total area. Both groups have at least m
// entries.
func rstarSplit(entries []page.Entry, m int) (group1, group2 []page.Entry) {
	lower, upper := chooseSplitAxis(entries, m)

	var best []page.Entry
	bestK := 0
	bestOvl, bestArea := 0.0, 0.0
	first := true
	for _, sorted := range [][]page.Entry{lower, upper} {
		pre, suf := prefixSuffixMBRs(sorted)
		for k := m; k <= len(sorted)-m; k++ {
			bb1, bb2 := pre[k-1], suf[k]
			ovl := bb1.OverlapArea(bb2)
			area := bb1.Area() + bb2.Area()
			if first || ovl < bestOvl || (ovl == bestOvl && area < bestArea) {
				best, bestK, bestOvl, bestArea = sorted, k, ovl, area
				first = false
			}
		}
	}
	group1 = append([]page.Entry(nil), best[:bestK]...)
	group2 = append([]page.Entry(nil), best[bestK:]...)
	return group1, group2
}

// chooseSplitAxis picks the axis (x, then y) whose distributions have the
// smaller total margin and returns the entries sorted by lower and by
// upper value along it.
func chooseSplitAxis(entries []page.Entry, m int) (byLower, byUpper []page.Entry) {
	bestMargin := 0.0
	for axis := 0; axis < 2; axis++ {
		lower, upper := axisSortings(entries, axis)
		margin := 0.0
		for _, sorted := range [][]page.Entry{lower, upper} {
			pre, suf := prefixSuffixMBRs(sorted)
			for k := m; k <= len(sorted)-m; k++ {
				margin += pre[k-1].Margin() + suf[k].Margin()
			}
		}
		if axis == 0 || margin < bestMargin {
			byLower, byUpper, bestMargin = lower, upper, margin
		}
	}
	return byLower, byUpper
}

// axisSortings returns the entries sorted by lower and by upper value
// along the axis (0 = x, 1 = y).
func axisSortings(entries []page.Entry, axis int) (byLower, byUpper []page.Entry) {
	byLower = append([]page.Entry(nil), entries...)
	byUpper = append([]page.Entry(nil), entries...)
	if axis == 0 {
		sort.SliceStable(byLower, func(i, j int) bool { return byLower[i].MBR.MinX < byLower[j].MBR.MinX })
		sort.SliceStable(byUpper, func(i, j int) bool { return byUpper[i].MBR.MaxX < byUpper[j].MBR.MaxX })
	} else {
		sort.SliceStable(byLower, func(i, j int) bool { return byLower[i].MBR.MinY < byLower[j].MBR.MinY })
		sort.SliceStable(byUpper, func(i, j int) bool { return byUpper[i].MBR.MaxY < byUpper[j].MBR.MaxY })
	}
	return byLower, byUpper
}

// prefixSuffixMBRs returns pre[i] = MBR(sorted[0..i]) and
// suf[i] = MBR(sorted[i..]).
func prefixSuffixMBRs(sorted []page.Entry) (pre, suf []geom.Rect) {
	n := len(sorted)
	pre = make([]geom.Rect, n)
	suf = make([]geom.Rect, n+1)
	acc := geom.EmptyRect()
	for i := 0; i < n; i++ {
		acc = acc.Union(sorted[i].MBR)
		pre[i] = acc
	}
	suf[n] = geom.EmptyRect()
	acc = geom.EmptyRect()
	for i := n - 1; i >= 0; i-- {
		acc = acc.Union(sorted[i].MBR)
		suf[i] = acc
	}
	return pre, suf
}
