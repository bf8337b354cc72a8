// Filterrefine demonstrates the paper's full storage architecture
// (§2.1, after Brinkhoff et al. 1993): window queries run in two steps —
// the R*-tree filters candidates by MBR, then the *exact representations*
// stored on separate object pages are tested. Directory, data and object
// pages share one buffer here, which is exactly the situation the
// type-based policies were designed for: LRU-T drops object pages first
// and keeps directory pages longest.
//
//	go run ./examples/filterrefine
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/objstore"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func main() {
	gen := dataset.USMainland(1)
	shaped := gen.ShapedObjects(2, 40_000)

	// One page store holds BOTH the tree pages and the object pages, so
	// a single buffer manages all three page categories.
	store := storage.NewMemStore()
	tree, err := rtree.New(store, rtree.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	shapes := make(map[uint64]geom.Polyline, len(shaped))
	exact := make([]objstore.ExactObject, len(shaped))
	for i, s := range shaped {
		if err := tree.Insert(s.ID, s.MBR); err != nil {
			log.Fatal(err)
		}
		shapes[s.ID] = s.Shape
		exact[i] = objstore.ExactObject{ID: s.ID, Shape: s.Shape}
	}
	if err := tree.FinalizeStats(); err != nil {
		log.Fatal(err)
	}
	objs, err := objstore.Build(store, exact, 0)
	if err != nil {
		log.Fatal(err)
	}
	ts, _ := tree.Stats()
	fmt.Printf("tree: %d pages; object store: %d pages; %d objects\n",
		ts.TotalPages(), objs.NumPages(), objs.NumObjects())

	// Window workload around the data clusters.
	rng := rand.New(rand.NewSource(5))
	var windows []geom.Rect
	for i := 0; i < 1200; i++ {
		c := geom.Point{
			X: gen.Space.MinX + rng.Float64()*gen.Space.Width(),
			Y: gen.Space.MinY + rng.Float64()*gen.Space.Height(),
		}
		windows = append(windows, geom.RectFromCenter(c, 12, 8).Intersection(gen.Space))
	}

	frames := (ts.TotalPages() + objs.NumPages()) * 2 / 100
	fmt.Printf("shared buffer: %d frames (2%%)\n\n", frames)

	policies := []buffer.Policy{core.NewLRU(), core.NewLRUT(), core.NewLRUP(),
		core.NewASB(frames, core.DefaultASBOptions())}
	var lruIO uint64
	for _, pol := range policies {
		buf, err := buffer.NewEngine(store, pol, frames)
		if err != nil {
			log.Fatal(err)
		}
		hits, candidates := 0, 0
		for i, w := range windows {
			if w.IsEmpty() {
				continue
			}
			res, err := objstore.FilterRefine(tree, buf, objs, buf, shapes,
				buffer.AccessContext{QueryID: uint64(i + 1)}, w, nil)
			if err != nil {
				log.Fatal(err)
			}
			hits += res.Hits
			candidates += res.Candidates
		}
		io := buf.Stats().DiskReads()
		if pol.Name() == "LRU" {
			lruIO = io
		}
		fmt.Printf("%-6s %8d disk accesses  (gain vs LRU %+5.1f%%)  %d exact hits of %d candidates\n",
			pol.Name(), io, (float64(lruIO)/float64(io)-1)*100, hits, candidates)
	}
}
