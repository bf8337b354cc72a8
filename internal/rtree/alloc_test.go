package rtree_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
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

// TestUpdatePathAllocs: Inserts and Deletes through the update-mix
// configuration — an async,shards=2 pool holding 4.7 % of the tree over a
// FileStore — allocate at most once in two operations after warm-up. An
// operation releases the nodes it read when it returns, so every page
// the pool lets go of, clean or written back, is decoded into again, and
// the paths, splits and reinsertions work in the tree's own scratch. What
// still allocates is a split's new page and its group, a write-back's
// copy of a page mid-write, and an entry slice too short for the page
// decoded into it.
func TestUpdatePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	objs := dataset.USMainland(101).Objects(2, 6_000)
	fs, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tree, err := rtree.New(fs, rtree.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Load through a pool that never evicts, as bench's update-mix does.
	load, err := buffer.NewEngine(fs, core.NewLRU(), 1<<16)
	if err == nil {
		err = tree.UseBuffer(load, buffer.AccessContext{})
	}
	for _, o := range objs {
		if err == nil {
			err = tree.Insert(o.ID, o.MBR)
		}
	}
	if err == nil {
		err = load.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	tree.UnbufferedIO()
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	asb, err := core.FactoryByName("ASB")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := buffer.ParseComposition("async,shards=2")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := comp.Build(fs, asb.New, int(experiment.LargestFrac*float64(st.TotalPages())))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.UseBuffer(pool, buffer.AccessContext{}); err != nil {
		t.Fatal(err)
	}
	const pairs = 1_000 // a Delete and an Insert each
	next := 0
	ops := func() {
		for range pairs {
			o := objs[next%len(objs)]
			next++
			if ok, err := tree.Delete(o.ID, o.MBR); err != nil || !ok {
				t.Fatalf("Delete(%d) = %t, %v", o.ID, ok, err)
			}
			if err := tree.Insert(o.ID, o.MBR); err != nil {
				t.Fatal(err)
			}
		}
	}
	ops()                                  // warm-up
	allocs := testing.AllocsPerRun(1, ops) // one more warm-up pass, one measured
	st2 := pool.Stats()
	if perOp := allocs / (2 * pairs); perOp > 0.5 {
		t.Errorf("%d Deletes and Inserts: %v allocations, %.3f per operation, want ≤ 0.5", pairs, allocs, perOp)
	} else {
		t.Logf("%v allocations in %d operations (%.3f each)", allocs, 2*pairs, perOp)
	}
	if st2.Evictions == 0 || st2.WriteBacks == 0 {
		t.Errorf("stats %+v: the run was meant to evict and write back", st2)
	}
	if err := pool.(interface{ Close() error }).Close(); err != nil {
		t.Fatal(err)
	}
	tree.UnbufferedIO()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.NumObjects() != len(objs) {
		t.Errorf("%d objects after the run, want %d", tree.NumObjects(), len(objs))
	}
}
