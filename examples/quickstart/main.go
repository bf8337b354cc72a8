// Quickstart: build a spatial database, put an adaptable spatial buffer
// (ASB) in front of it, and run window queries.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func main() {
	// 1. Generate a clustered spatial dataset (20,000 objects).
	gen := dataset.USMainland(1)
	objects := gen.Objects(2, 20_000)

	// 2. Index it with an R*-tree over an in-memory page store. The
	//    fan-outs (51 directory / 42 data entries) match the paper.
	store := storage.NewMemStore()
	tree, err := rtree.New(store, rtree.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range objects {
		if err := tree.Insert(o.ID, o.MBR); err != nil {
			log.Fatal(err)
		}
	}
	// Finalize per-page statistics (needed by the spatial criteria).
	if err := tree.FinalizeStats(); err != nil {
		log.Fatal(err)
	}
	stats, err := tree.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d objects in %d pages (height %d, %.1f%% directory pages)\n",
		stats.NumObjects, stats.TotalPages(), stats.Height, stats.DirFraction()*100)
	store.ResetStats()

	// 3. Put a buffer in front: 4% of the database, managed by the
	//    self-tuning adaptable spatial buffer.
	frames := stats.TotalPages() * 4 / 100
	policy := core.NewASB(frames, core.DefaultASBOptions())
	buf, err := buffer.NewEngine(store, policy, frames)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run some window queries through the buffer. Each query gets its
	//    own ID: the buffer uses it to recognize correlated accesses.
	found := 0
	for q := 1; q <= 500; q++ {
		window := geom.RectFromCenter(
			geom.Point{X: float64(q%40) * 25, Y: float64(q%20) * 25}, 30, 15)
		ctx := buffer.AccessContext{QueryID: uint64(q)}
		err := tree.Search(buf, ctx, window, func(e page.Entry) bool {
			found++
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// 5. Inspect the result: every buffer miss was one disk access.
	bs := buf.Stats()
	fmt.Printf("500 window queries: %d results, %d page requests, %.1f%% hit ratio, %d disk accesses\n",
		found, bs.Requests, bs.HitRatio()*100, bs.DiskReads())
	fmt.Printf("ASB self-tuned its candidate set to %d of %d main-part frames (%d adaptations)\n",
		policy.CandidateSize(), policy.MainCapacity(), policy.Adaptations())
}
