package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/objstore"
	"repro/internal/rtree"
)

// extensionObjects is the object count the join and filter/refine
// extensions scale from: DB1's count under opts.
func extensionObjects(opts Options) int {
	if opts.Objects > 0 {
		return opts.Objects
	}
	return defaultObjects[1]
}

// figJoin is an extension beyond the paper (its future-work item 2): two
// map layers over DB1's space, a quarter and three sixteenths of DB1's
// object count, joined by synchronized R*-tree traversal (rtree.Join).
// Each side reads its pages through its own buffer of 2% of that layer.
// Cells are gains over LRU in disk reads, and the number of intersecting
// pairs, which every policy must agree on.
func figJoin(opts Options, seed int64) ([]*Table, error) {
	n := extensionObjects(opts)
	gen := dataset.USMainland(seed)
	// Two layers over the same space with different seeds: their objects
	// cluster in the same regions, as map layers do, but differ.
	left, leftStore, ls, err := buildTree(gen.Objects(seed+1, n/4))
	if err != nil {
		return nil, err
	}
	right, rightStore, rs, err := buildTree(gen.Objects(seed+2, n*3/16))
	if err != nil {
		return nil, err
	}
	framesL, framesR := max(2, ls.TotalPages()*2/100), max(2, rs.TotalPages()*2/100)

	policies := []string{"LRU-2", "A", "ASB"}
	factories, err := factoriesByName(append([]string{"LRU"}, policies...)...)
	if err != nil {
		return nil, err
	}
	const row = "join"
	t := NewTable("join",
		fmt.Sprintf("spatial join of two DB1 layers (%d × %d objects), buffer 2%% per side", n/4, n*3/16),
		"gain vs LRU [%] (disk reads); pairs", []string{row}, append(policies, "pairs"))
	var lruIO uint64
	lruPairs := -1
	for _, f := range factories {
		bufL, err := buffer.NewEngine(leftStore, f.New(framesL), framesL)
		if err != nil {
			return nil, err
		}
		bufR, err := buffer.NewEngine(rightStore, f.New(framesR), framesR)
		if err != nil {
			return nil, err
		}
		pairs := 0
		err = rtree.Join(left, right, bufL, bufR, buffer.AccessContext{QueryID: 1},
			func(rtree.JoinPair) bool { pairs++; return true })
		if err != nil {
			return nil, fmt.Errorf("experiment: join with %s: %w", f.Name, err)
		}
		io := bufL.Stats().DiskReads() + bufR.Stats().DiskReads()
		if f.Name == "LRU" {
			lruIO, lruPairs = io, pairs
			continue
		}
		if pairs != lruPairs {
			return nil, fmt.Errorf("experiment: join with %s found %d pairs, LRU %d", f.Name, pairs, lruPairs)
		}
		if err := t.set(row, f.Name, gainPct(lruIO, io)); err != nil {
			return nil, err
		}
	}
	if err := t.set(row, "pairs", float64(lruPairs)); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// figFilterRefine is an extension beyond the paper: its full storage
// architecture (§2.1, after Brinkhoff et al. 1993), in which a window
// query filters candidates by MBR in the R*-tree and then tests their
// exact representations, stored on separate object pages. Directory,
// data and object pages share one buffer of 2% of all pages: the
// situation the type-based policies LRU-T and LRU-P were designed for.
// The objects are a quarter of DB1's count; cells are gains over LRU in
// disk reads.
func figFilterRefine(opts Options, seed int64) ([]*Table, error) {
	gen := dataset.USMainland(seed)
	shaped := gen.ShapedObjects(seed+1, extensionObjects(opts)/4)
	objs := make([]dataset.Object, len(shaped))
	exact := make([]objstore.ExactObject, len(shaped))
	shapes := make(map[uint64]geom.Polyline, len(shaped))
	for i, s := range shaped {
		objs[i] = s.Object
		exact[i] = objstore.ExactObject{ID: s.ID, Shape: s.Shape}
		shapes[s.ID] = s.Shape
	}
	tree, store, ts, err := buildTree(objs)
	if err != nil {
		return nil, err
	}
	// The object pages go into the tree's store, so one buffer manages
	// all three page types.
	objPages, err := objstore.Build(store, exact, 0)
	if err != nil {
		return nil, err
	}
	// Windows of 12 × 8 space units centred uniformly in the space.
	rng := rand.New(rand.NewSource(seed + 4))
	windows := make([]geom.Rect, 1200)
	for i := range windows {
		c := geom.Point{
			X: gen.Space.MinX + rng.Float64()*gen.Space.Width(),
			Y: gen.Space.MinY + rng.Float64()*gen.Space.Height(),
		}
		windows[i] = geom.RectFromCenter(c, 12, 8).Intersection(gen.Space)
	}
	frames := max(2, (ts.TotalPages()+objPages.NumPages())*2/100)

	policies := []string{"LRU-T", "LRU-P", "ASB"}
	factories, err := factoriesByName(append([]string{"LRU"}, policies...)...)
	if err != nil {
		return nil, err
	}
	const row = "window query"
	t := NewTable("filterrefine",
		fmt.Sprintf("filter/refine window queries, %d objects on DB1's space, tree and object pages in one buffer of 2%%", len(shaped)),
		"gain vs LRU [%] (disk reads)", []string{row}, policies)
	var lruIO uint64
	for _, f := range factories {
		buf, err := buffer.NewEngine(store, f.New(frames), frames)
		if err != nil {
			return nil, err
		}
		for i, w := range windows {
			if w.IsEmpty() {
				continue
			}
			_, err := objstore.FilterRefine(tree, buf, objPages, buf, shapes,
				buffer.AccessContext{QueryID: uint64(i + 1)}, w, nil)
			if err != nil {
				return nil, fmt.Errorf("experiment: filter/refine with %s: %w", f.Name, err)
			}
		}
		io := buf.Stats().DiskReads()
		if f.Name == "LRU" {
			lruIO = io
			continue
		}
		if err := t.set(row, f.Name, gainPct(lruIO, io)); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
