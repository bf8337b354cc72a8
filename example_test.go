package repro_test

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

// Example builds a spatial database, puts an adaptable spatial buffer
// (ASB) in front of it, and runs window queries through the buffer.
func Example() {
	// A clustered spatial dataset of 20 000 objects, indexed by an
	// R*-tree over an in-memory page store. The fan-outs (51 directory,
	// 42 data entries) are the paper's.
	objects := dataset.USMainland(1).Objects(2, 20_000)
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
	// Per-page statistics, read by the spatial criteria.
	if err := tree.FinalizeStats(); err != nil {
		log.Fatal(err)
	}
	stats, err := tree.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d objects in %d pages (height %d, %.1f%% directory pages)\n",
		stats.NumObjects, stats.TotalPages(), stats.Height, stats.DirFraction()*100)

	// A buffer of 4% of the database, managed by the self-tuning ASB.
	frames := stats.TotalPages() * 4 / 100
	policy := core.NewASB(frames, core.DefaultASBOptions())
	buf, err := buffer.NewEngine(store, policy, frames)
	if err != nil {
		log.Fatal(err)
	}

	// Each query has its own ID: the buffer uses it to recognize
	// correlated accesses.
	found := 0
	for q := 1; q <= 500; q++ {
		window := geom.RectFromCenter(
			geom.Point{X: float64(q%40) * 25, Y: float64(q%20) * 25}, 30, 15)
		err := tree.Search(buf, buffer.AccessContext{QueryID: uint64(q)}, window,
			func(page.Entry) bool { found++; return true })
		if err != nil {
			log.Fatal(err)
		}
	}

	// Every buffer miss was one disk access.
	bs := buf.Stats()
	fmt.Printf("500 window queries: %d results, %d page requests, %.1f%% hit ratio, %d disk accesses\n",
		found, bs.Requests, bs.HitRatio()*100, bs.DiskReads())
	fmt.Printf("ASB self-tuned its candidate set to %d of %d main-part frames (%d adaptations)\n",
		policy.CandidateSize(), policy.MainCapacity(), policy.Adaptations())
	// Output:
	// indexed 20000 objects in 686 pages (height 3, 2.8% directory pages)
	// 500 window queries: 5544 results, 2217 page requests, 60.9% hit ratio, 866 disk accesses
	// ASB self-tuned its candidate set to 7 of 22 main-part frames (1 adaptations)
}
