package rtree_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/page"
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
