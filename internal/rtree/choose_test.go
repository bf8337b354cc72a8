package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// textbookChooseByOverlap is ChooseSubtree's overlap-enlargement search
// as the R*-tree paper states it and as this package shipped it up to
// ISSUE 22, kept verbatim: the oracle chooseByOverlap must agree with on
// the index, not merely on the quality of the choice. (The equivalence
// assumes no area overflows to +Inf, where the oracle's x − x is NaN;
// coordinates below 1e150 in magnitude are safe.)
func textbookChooseByOverlap(node *page.Page, r geom.Rect) int {
	best := -1
	var bestOvl, bestEnl, bestArea float64
	for i := range node.Entries {
		grown := node.Entries[i].MBR.Union(r)
		var ovl float64
		for j := range node.Entries {
			if j == i {
				continue
			}
			ovl += grown.OverlapArea(node.Entries[j].MBR) -
				node.Entries[i].MBR.OverlapArea(node.Entries[j].MBR)
		}
		enl := node.Entries[i].MBR.Enlargement(r)
		area := node.Entries[i].MBR.Area()
		if best < 0 || ovl < bestOvl || (ovl == bestOvl && enl < bestEnl) ||
			(ovl == bestOvl && enl == bestEnl && area < bestArea) {
			best, bestOvl, bestEnl, bestArea = i, ovl, enl, area
		}
	}
	return best
}

// prunedChooseByOverlap is the one-pass kernel that least enlargement
// first replaced, kept verbatim: every entry in index order, with cuts
// (a)–(c) of DESIGN.md §5a.4. It is the oracle where areas overflow,
// which the textbook loop's x − x turns into NaN.
func prunedChooseByOverlap(node *page.Page, r geom.Rect) int {
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

// level1 wraps rectangles into a directory node whose children are leaves.
func level1(rects []geom.Rect) *page.Page {
	p := page.New(1, page.TypeDirectory, 1, len(rects))
	for i, r := range rects {
		p.Entries = append(p.Entries, page.Entry{MBR: r, Child: page.ID(i + 2)})
	}
	return p
}

// checkChoice fails unless the kernel and the oracle pick the same entry.
func checkChoice(t *testing.T, node *page.Page, r geom.Rect) {
	t.Helper()
	got, want := chooseByOverlap(node, r), textbookChooseByOverlap(node, r)
	if got != want {
		t.Fatalf("chooseByOverlap = %d, textbook loop = %d\nr = %#v\nentries = %#v", got, want, r, node.Entries)
	}
}

// gridCoords are the fuzzer's coordinates: few enough that duplicates,
// shared edges, containment, points and zero-width or zero-height
// rectangles are the norm, with both zeros, a denormal, values that are
// not exact in binary and mixed signs and magnitudes.
var gridCoords = [16]float64{
	-1e6, -1000, -7.5, -1, -0.1, math.Copysign(0, -1), 0, 5e-324,
	0.1, 1.0 / 3, 1, 2.5, 3, 7, 1000, 1e100,
}

// gridCase decodes fuzz bytes into a node of 1–51 entries and a rectangle
// r; data is read cyclically, so every input is a full case.
func gridCase(data []byte) (*page.Page, geom.Rect) {
	if len(data) == 0 {
		data = []byte{0}
	}
	pos := 0
	next := func() float64 {
		b := data[pos%len(data)] + byte(pos/len(data)) // later laps differ
		pos++
		return gridCoords[b%16]
	}
	rect := func() geom.Rect { return geom.NewRect(next(), next(), next(), next()) }
	n := 1 + int(data[0])%51
	r := rect()
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = rect()
	}
	return level1(rects), r
}

// scaleRect multiplies every coordinate of r by k.
func scaleRect(r geom.Rect, k float64) geom.Rect {
	return geom.NewRect(r.MinX*k, r.MinY*k, r.MaxX*k, r.MaxY*k)
}

// FuzzChooseByOverlap is the differential fuzzer of the kernel against
// the textbook loop. The same case scaled by 1e200, where areas overflow
// to +Inf and enlargements to +Inf or NaN, is compared with the one-pass
// pruned kernel instead. CI runs it for ten seconds.
func FuzzChooseByOverlap(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{50, 6, 6, 10, 10, 5, 5, 12, 12, 6, 6, 6, 6})
	f.Add([]byte{7, 3, 9, 3, 9, 0, 0, 15, 15, 1, 14, 2, 13, 6, 5, 6, 5, 7, 7, 8, 8})
	f.Add([]byte("the write workload measures the buffer again"))
	// Unscaled, no least-enlargement entry is free of overlap
	// enlargement: the other entries are searched too.
	f.Add([]byte{15, 199, 187, 129, 134, 57})
	// Scaled, some enlargements are NaN: every entry is visited in index
	// order.
	f.Add([]byte{222, 228, 127, 89})
	f.Fuzz(func(t *testing.T, data []byte) {
		node, r := gridCase(data)
		checkChoice(t, node, r)
		for i := range node.Entries {
			node.Entries[i].MBR = scaleRect(node.Entries[i].MBR, 1e200)
		}
		r = scaleRect(r, 1e200)
		if got, want := chooseByOverlap(node, r), prunedChooseByOverlap(node, r); got != want {
			t.Fatalf("scaled: chooseByOverlap = %d, pruned kernel = %d\nr = %#v\nentries = %#v", got, want, r, node.Entries)
		}
	})
}

// randRect draws a rectangle in one of the shapes real nodes and
// adversarial ones contain.
func randRect(rng *rand.Rand, coord func() float64) geom.Rect {
	x, y := coord(), coord()
	switch rng.Intn(5) {
	case 0: // point
		return geom.NewRect(x, y, x, y)
	case 1: // zero width
		return geom.NewRect(x, y, x, coord())
	case 2: // zero height
		return geom.NewRect(x, y, coord(), y)
	default:
		return geom.NewRect(x, y, coord(), coord())
	}
}

// TestChooseByOverlapMatchesTextbook compares the kernel with the oracle
// on random nodes of 1–51 entries: a small integer grid with both zeros
// (duplicates, shared edges), continuous coordinates of mixed sign, and
// tight clusters where r lies inside several entries.
func TestChooseByOverlapMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	grid := func() float64 {
		v := float64(rng.Intn(9) - 4)
		if v == 0 && rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return v
	}
	continuous := func() float64 { return (rng.Float64() - 0.5) * 200 }
	clustered := func() float64 { return rng.NormFloat64() / 2 }
	for trial := 0; trial < 6000; trial++ {
		coord := [](func() float64){grid, continuous, clustered}[trial%3]
		rects := make([]geom.Rect, 1+rng.Intn(51))
		for i := range rects {
			if trial%3 == 2 { // overlapping cluster around the origin
				c := geom.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
				rects[i] = geom.RectFromCenter(c, rng.Float64()*4, rng.Float64()*4)
			} else {
				rects[i] = randRect(rng, coord)
			}
		}
		if rng.Intn(4) == 0 { // a duplicate entry
			rects[rng.Intn(len(rects))] = rects[rng.Intn(len(rects))]
		}
		node := level1(rects)
		checkChoice(t, node, randRect(rng, coord))
		checkChoice(t, node, rects[rng.Intn(len(rects))]) // r equal to an entry
	}
}

// TestChooseByOverlapMatchesTextbookOnBuiltTree asks both for a subtree
// in every level-1 node of a tree built at the paper's fan-outs.
func TestChooseByOverlapMatchesTextbookOnBuiltTree(t *testing.T) {
	tr, _ := benchTree(t, 12_000)
	probes := randObjs(rand.New(rand.NewSource(23)), 40)
	err := tr.walk(tr.root, func(p *page.Page) error {
		if p.Level == 1 {
			for _, o := range probes {
				checkChoice(t, p, o.mbr)
			}
			for _, e := range p.Entries[:min(4, len(p.Entries))] {
				checkChoice(t, p, e.MBR)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlapTermsNonNegative checks the premise of the pruning: for
// e ⊆ grown, area(grown ∩ m) − area(e ∩ m) is never negative in floating
// point, on coordinates with random mantissas, exponents and signs.
func TestOverlapTermsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	coord := func() float64 {
		v := math.Ldexp(rng.Float64()+0.5, rng.Intn(41)-20)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	for trial := 0; trial < 200_000; trial++ {
		e, r, m := randRect(rng, coord), randRect(rng, coord), randRect(rng, coord)
		grown := e.Union(r)
		if !grown.Contains(e) {
			t.Fatalf("%v ∪ %v = %v does not contain the former", e, r, grown)
		}
		if term := grown.OverlapArea(m) - e.OverlapArea(m); !(term >= 0) {
			t.Fatalf("term %g < 0 for e=%#v r=%#v m=%#v", term, e, r, m)
		}
	}
}

// TestChooseByOverlapMatchesPrunedKernel compares the kernel with the
// one-pass kernel on random nodes of 1–51 entries at magnitudes from 1 to
// 1e308: areas, enlargements and overlap sums overflow to +Inf, and an
// infinite width times a zero height is NaN.
func TestChooseByOverlapMatchesPrunedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	nan, inf := 0, 0 // nodes visited in index order, and in two passes
	for trial := 0; trial < 20_000; trial++ {
		scale := math.Pow(10, float64(rng.Intn(309)))
		coord := func() float64 { return (2*rng.Float64() - 1) * scale }
		rects := make([]geom.Rect, 1+rng.Intn(51))
		for i := range rects {
			if trial%2 == 0 { // overlapping cluster around the origin
				c := geom.Point{X: rng.NormFloat64() * scale / 4, Y: rng.NormFloat64() * scale / 4}
				rects[i] = geom.RectFromCenter(c, rng.Float64()*scale, rng.Float64()*scale)
			} else {
				rects[i] = randRect(rng, coord)
			}
		}
		node := level1(rects)
		r := randRect(rng, coord)
		if rng.Intn(4) == 0 { // r equal to an entry
			r = rects[rng.Intn(len(rects))]
		}
		enls := make([]float64, len(rects))
		for i, e := range node.Entries {
			enls[i] = e.MBR.Enlargement(r)
		}
		switch {
		case slices.ContainsFunc(enls, math.IsNaN):
			nan++
		case slices.Contains(enls, math.Inf(1)):
			inf++
		}
		if got, want := chooseByOverlap(node, r), prunedChooseByOverlap(node, r); got != want {
			t.Fatalf("chooseByOverlap = %d, pruned kernel = %d\nr = %#v\nentries = %#v", got, want, r, node.Entries)
		}
	}
	if nan == 0 || inf == 0 {
		t.Fatalf("%d nodes with a NaN enlargement, %d with +Inf and no NaN; want both", nan, inf)
	}
}

// TestInsertHugeCoordinates builds a tree of objects whose coordinates
// are near 1e200, so that the areas of leaves, and the enlargements
// ChooseSubtree compares, overflow to +Inf and NaN.
func TestInsertHugeCoordinates(t *testing.T) {
	tr, err := New(storage.NewMemStore(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range randObjs(rand.New(rand.NewSource(47)), 3000) {
		if err := tr.Insert(o.id, scaleRect(o.mbr, 1e197)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: no node above the leaves", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
