package rtree_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// TestPointSearchAllocatesNothing: on a warm bare engine that holds the
// whole tree a point query is all hits, and neither the traversal (its
// stack of pending page IDs lives on the goroutine's stack) nor the
// engine's hit path allocates.
func TestPointSearchAllocatesNothing(t *testing.T) {
	db, err := experiment.Build(1, experiment.Options{Objects: 6_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewEngine(db.Store, core.NewLRU(), db.Stats.TotalPages())
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	visit := func(page.Entry) bool { found++; return true }
	i := 0
	query := func() {
		o := db.Objects[i%len(db.Objects)]
		i++
		ctx := buffer.AccessContext{QueryID: uint64(i)}
		if err := db.Tree.Search(pool, ctx, geom.RectFromPoint(o.MBR.Center()), visit); err != nil {
			t.Fatal(err)
		}
	}
	for range db.Objects { // warm: every page resident
		query()
	}
	// AllocsPerRun truncates its average to an integer, and a point query
	// used to allocate only when two children of one node matched: count
	// a thousand queries as one run.
	allocs := testing.AllocsPerRun(1, func() {
		for k := 0; k < 1000; k++ {
			query()
		}
	})
	if allocs != 0 {
		t.Errorf("1000 point Searches on a warm bare engine: %v allocations, want 0", allocs)
	}
	if found == 0 {
		t.Error("the point queries found nothing")
	}
}

// TestFileMissAllocatesNothing: on a bare engine over a FileStore whose
// buffer holds 4.7 % of the tree, window queries mostly miss, and each
// miss decodes into the memory of a page that the engine evicted clean
// and Search released. After warm-up, at most one allocation in twenty
// misses: an entry slice too short for the page read into it, or a page
// the store's sync.Pool gave up in a collection.
func TestFileMissAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	db, err := experiment.Build(1, experiment.Options{Objects: 6_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for id := page.ID(1); int(id) <= db.Store.NumPages(); id++ {
		p, err := db.Store.Read(id)
		if err == nil && fs.Allocate() != id {
			err = fmt.Errorf("allocated out of order at page %d", id)
		}
		if err == nil {
			err = fs.Write(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	pool, err := buffer.NewEngine(fs, core.NewLRU(), db.Frames(experiment.LargestFrac))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := db.QuerySet("INT-W-333", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	visit := func(page.Entry) bool { found++; return true }
	var misses uint64
	queries := func() {
		before := pool.Stats().Misses
		for _, q := range qs.Queries {
			if err := db.Tree.Search(pool, buffer.AccessContext{QueryID: q.ID}, q.Rect, visit); err != nil {
				t.Fatal(err)
			}
		}
		misses = pool.Stats().Misses - before
	}
	allocs := testing.AllocsPerRun(1, queries) // one warm-up pass, one measured
	if misses < uint64(len(qs.Queries)) {
		t.Fatalf("%d misses in %d window queries: the workload was meant to miss", misses, len(qs.Queries))
	}
	t.Logf("%v allocations for %d misses", allocs, misses)
	if perMiss := allocs / float64(misses); perMiss > 0.05 {
		t.Errorf("%d window Searches over a FileStore: %v allocations for %d misses (%.3f per miss), want ≤ 0.05",
			len(qs.Queries), allocs, misses, perMiss)
	}
	if found == 0 {
		t.Error("the window queries found nothing")
	}
}
