package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
	defer t.release()
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
	t.appendEntry(node, e)
	if len(node.Entries) > t.params.maxEntries(node.Level) {
		return t.overflowTreatment(path, leafDepth)
	}
	return t.writeAndAdjust(path, leafDepth)
}

// choosePath descends from the root to a node at the target level,
// applying the R* ChooseSubtree criteria, and returns the path (t.path).
func (t *Tree) choosePath(r geom.Rect, level int) ([]pathStep, error) {
	node, err := t.hold(t.root)
	if err != nil {
		return nil, err
	}
	path := append(t.path[:0], pathStep{node: node, parentIdx: -1})
	for node.Level > level {
		idx := chooseSubtree(node, r)
		child, err := t.hold(node.Entries[idx].Child)
		if err != nil {
			return nil, err
		}
		path = append(path, pathStep{node: child, parentIdx: idx})
		node = child
	}
	t.path = path
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
//
// The entries of least area enlargement are tried first: if one of them
// needs no overlap enlargement, no other entry can win or tie, since
// every other one has a larger enlargement and an overlap sum of at
// least 0. Each pass visits its entries in index order, and the two
// passes share no enlargement, so the winner is the least (overlap,
// enlargement, area, index), as in the textbook's one pass. An area that
// overflows can make an enlargement NaN, and NaN compares false in any
// order of visits; then the first pass visits every entry, in index
// order, and is the only one.
func chooseByOverlap(node *page.Page, r geom.Rect) int {
	entries := node.Entries
	var buf [64]float64
	enls := buf[:0]
	if len(entries) > len(buf) {
		enls = make([]float64, 0, len(entries))
	}
	minEnl := math.Inf(1)
	for i := range entries {
		enl := entries[i].MBR.Enlargement(r)
		enls = append(enls, enl)
		minEnl = min(minEnl, enl)
	}
	// min is NaN if any enlargement is. Without a NaN enlargement every
	// entry's area is finite, each term is at most a sibling's area, and
	// no overlap sum is NaN.
	nan := minEnl != minEnl
	s := overlapSearch{entries: entries, r: r, best: -1}
	for i, enl := range enls {
		if nan || enl == minEnl {
			s.consider(i, enl)
		}
	}
	if nan || s.bestOvl == 0 {
		return s.best
	}
	for i, enl := range enls {
		if enl != minEnl {
			s.consider(i, enl)
		}
	}
	return s.best
}

// overlapSearch is chooseByOverlap's best candidate so far.
type overlapSearch struct {
	entries                    []page.Entry
	r                          geom.Rect
	best                       int
	bestOvl, bestEnl, bestArea float64
}

// consider makes entry i, whose area enlargement by r is enl, the best
// candidate if its (overlap, enlargement, area) is less than the best's.
func (s *overlapSearch) consider(i int, enl float64) {
	entries := s.entries
	e := entries[i].MBR
	var ovl float64
	// r inside e: the enlarged MBR is e and every term is x − x.
	if !e.Contains(s.r) {
		grown := e.Union(s.r)
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
			if s.best >= 0 && ovl > s.bestOvl {
				return
			}
		}
	}
	area := e.Area()
	if s.best < 0 || ovl < s.bestOvl || (ovl == s.bestOvl && enl < s.bestEnl) ||
		(ovl == s.bestOvl && enl == s.bestEnl && area < s.bestArea) {
		s.best, s.bestOvl, s.bestEnl, s.bestArea = i, ovl, enl, area
	}
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
	box := geom.EmptyRect()
	for _, e := range node.Entries {
		box = box.Union(e.MBR)
	}
	center := box.Center()

	base := len(t.des)
	for _, e := range node.Entries {
		c := e.MBR.Center()
		dx, dy := c.X-center.X, c.Y-center.Y
		t.des = append(t.des, distEntry{e: e, d: dx*dx + dy*dy})
	}
	defer func() { t.des = t.des[:base] }()
	// Not stable, on purpose left alone: which of two entries at equal
	// distance goes first decides where they end up, so the permutation
	// this sort happens to produce is part of the tree's shape (and of
	// every figure). Another algorithm, even a stable one, would move them;
	// slices.SortFunc is sort.Slice's, generated from one source, and on
	// the finite numbers a tree holds (Insert checks) cmp.Compare is <.
	des := t.des[base:]
	slices.SortFunc(des, func(a, b distEntry) int { return cmp.Compare(b.d, a.d) })

	p := int(t.params.ReinsertFrac * float64(len(des)))
	if p < 1 {
		p = 1
	}
	removed := des[:p]
	node.Entries = node.Entries[:0]
	for _, de := range des[p:] {
		node.Entries = append(node.Entries, de.e)
	}
	t.des = t.des[:base+p] // the nested ones need only what goes back in
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
	order, k := t.splitBuf.rstarSplit(node.Entries, m)

	entries := node.Entries
	node.Entries = slices.Grow([]page.Entry(nil), k) // sized as append(nil, …) sizes it
	for _, i := range order[:k] {
		node.Entries = append(node.Entries, entries[i])
	}
	sibID := t.io.Allocate()
	sib := page.New(sibID, node.Type, node.Level, len(order)-k)
	for _, i := range order[k:] {
		sib.Entries = append(sib.Entries, entries[i])
	}

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
	t.appendEntry(parent, page.Entry{MBR: sib.MBR, Child: sib.ID})
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

// appendEntry adds e to node. A full node grows by room for M+1 entries,
// not append's doubling: a page's memory lasts as long as it recycles.
func (t *Tree) appendEntry(node *page.Page, e page.Entry) {
	if n := len(node.Entries); n == cap(node.Entries) {
		grown := make([]page.Entry, n, max(n, t.params.maxEntries(node.Level))+1)
		copy(grown, node.Entries)
		node.Entries = grown
	}
	node.Entries = append(node.Entries, e)
}

// distEntry is a forced-reinsertion candidate and its squared distance
// from the node's centre.
type distEntry struct {
	e page.Entry
	d float64
}

// splitScratch is every split's memory: the entries' orders by each
// bound on each axis, prefix and suffix MBRs. Nothing nests in its use.
type splitScratch struct {
	orders   [2][2][]int // [axis][lower, upper]
	pre, suf []geom.Rect
}

// rstarSplit partitions M+1 entries into two groups following the R*
// topological split: the split axis minimizes the margin sum over all
// distributions; the distribution on that axis minimizes the overlap
// between the groups, then their total area. The groups are the entries
// at order[:k] and at order[k:] (order is in s), both at least m.
func (s *splitScratch) rstarSplit(entries []page.Entry, m int) (order []int, k int) {
	lower, upper := s.chooseSplitAxis(entries, m)

	bestOvl, bestArea := 0.0, 0.0
	first := true
	for _, sorted := range [2][]int{lower, upper} {
		pre, suf := s.prefixSuffixMBRs(entries, sorted)
		for i := m; i <= len(sorted)-m; i++ {
			bb1, bb2 := pre[i-1], suf[i]
			ovl := bb1.OverlapArea(bb2)
			area := bb1.Area() + bb2.Area()
			if first || ovl < bestOvl || (ovl == bestOvl && area < bestArea) {
				order, k, bestOvl, bestArea = sorted, i, ovl, area
				first = false
			}
		}
	}
	return order, k
}

// chooseSplitAxis picks the axis (x, then y) whose distributions have the
// smaller total margin and returns the entries' orders by lower and by
// upper value along it.
func (s *splitScratch) chooseSplitAxis(entries []page.Entry, m int) (byLower, byUpper []int) {
	bestMargin := 0.0
	for axis := 0; axis < 2; axis++ {
		lower, upper := s.axisSortings(entries, axis)
		margin := 0.0
		for _, sorted := range [2][]int{lower, upper} {
			pre, suf := s.prefixSuffixMBRs(entries, sorted)
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

// axisSortings returns the entries' orders by lower and by upper value
// along the axis (0 = x, 1 = y): the swaps sort.SliceStable made on the
// entries, as reinsert's sort explains.
func (s *splitScratch) axisSortings(entries []page.Entry, axis int) (byLower, byUpper []int) {
	for k, o := range s.orders[axis] {
		s.orders[axis][k] = slices.Grow(o[:0], len(entries))[:len(entries)]
		for i := range entries {
			s.orders[axis][k][i] = i
		}
	}
	byLower, byUpper = s.orders[axis][0], s.orders[axis][1]
	if axis == 0 {
		slices.SortStableFunc(byLower, func(a, b int) int { return cmp.Compare(entries[a].MBR.MinX, entries[b].MBR.MinX) })
		slices.SortStableFunc(byUpper, func(a, b int) int { return cmp.Compare(entries[a].MBR.MaxX, entries[b].MBR.MaxX) })
	} else {
		slices.SortStableFunc(byLower, func(a, b int) int { return cmp.Compare(entries[a].MBR.MinY, entries[b].MBR.MinY) })
		slices.SortStableFunc(byUpper, func(a, b int) int { return cmp.Compare(entries[a].MBR.MaxY, entries[b].MBR.MaxY) })
	}
	return byLower, byUpper
}

// prefixSuffixMBRs returns, for the entries in the given order,
// pre[i] = MBR(entries[order[0..i]]) and suf[i] = MBR(entries[order[i..]]),
// in s until its next call.
func (s *splitScratch) prefixSuffixMBRs(entries []page.Entry, order []int) (pre, suf []geom.Rect) {
	n := len(order)
	s.pre, s.suf = slices.Grow(s.pre[:0], n)[:n], slices.Grow(s.suf[:0], n+1)[:n+1]
	pre, suf = s.pre, s.suf
	acc := geom.EmptyRect()
	for i := 0; i < n; i++ {
		acc = acc.Union(entries[order[i]].MBR)
		pre[i] = acc
	}
	suf[n] = geom.EmptyRect()
	acc = geom.EmptyRect()
	for i := n - 1; i >= 0; i-- {
		acc = acc.Union(entries[order[i]].MBR)
		suf[i] = acc
	}
	return pre, suf
}
