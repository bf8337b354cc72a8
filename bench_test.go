package repro

import (
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/page"
	"repro/internal/trace"
)

// benchOpts scale the database down so the benchmarks run in seconds.
// experiment.Get memoizes builds, so the database cost is paid once per
// process.
var benchOpts = experiment.Options{Objects: 24_000, Places: 600, Seed: 1}

// BenchmarkPolicyReplay measures raw replacement-policy throughput: one
// recorded reference string replayed through each policy at a fixed
// buffer size (ns/op is per full replay; the refs/op metric sizes it).
func BenchmarkPolicyReplay(b *testing.B) {
	db, err := experiment.Get(1, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := db.Trace("U-W-100", 1)
	if err != nil {
		b.Fatal(err)
	}
	frames := db.Frames(0.047)
	for _, f := range core.StandardFactories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			b.ReportMetric(float64(tr.Len()), "refs/op")
			for i := 0; i < b.N; i++ {
				m, err := buffer.NewEngine(db.Store, f.New(frames), frames)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := trace.ReplayOn(tr, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSharedHitScaling is point-hit-shared's configuration (DB1 at
// 24 000 objects, INT-P point queries, pages + pages/4 frames so that
// every Get hits, ASB) four ways: one goroutine on a sharded,shards=2
// pool, two goroutines on that pool, one bare engine, and two
// goroutines each on a bare engine of its own. The queries/s metric is
// what DESIGN §5c quotes for how far two workers on one pool get beyond
// one; the last row is the ceiling without sharing.
func BenchmarkSharedHitScaling(b *testing.B) {
	db, err := experiment.Get(1, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := db.QuerySet("INT-P", 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	asb, err := core.FactoryByName("ASB")
	if err != nil {
		b.Fatal(err)
	}
	frames := db.Stats.TotalPages() + db.Stats.TotalPages()/4
	for _, row := range []struct {
		name       string
		pool       string
		goroutines int
	}{
		{"sharded-1g", "sharded,shards=2", 1},
		{"sharded-2g", "sharded,shards=2", 2},
		{"bare-1g", "bare", 1},
		{"bare-2g-own-engines", "bare", 2},
	} {
		b.Run(row.name, func(b *testing.B) {
			comp, err := buffer.ParseComposition(row.pool)
			if err != nil {
				b.Fatal(err)
			}
			pools := make([]buffer.Pool, row.goroutines)
			for g := range pools {
				if g > 0 && row.pool != "bare" {
					pools[g] = pools[0] // the one shared pool
					continue
				}
				if pools[g], err = comp.Build(db.Store, asb.New, frames); err != nil {
					b.Fatal(err)
				}
			}
			search := func(p buffer.Pool, i int) {
				q := qs.Queries[i%len(qs.Queries)]
				err := db.Tree.Search(p, buffer.AccessContext{QueryID: q.ID}, q.Rect, func(page.Entry) bool { return true })
				if err != nil {
					b.Error(err)
				}
			}
			for g := range pools { // warm: every page resident
				for i := range qs.Queries {
					search(pools[g], i)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := range pools {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; i < b.N; i += len(pools) {
						search(pools[g], i)
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			if st := pools[0].Stats(); st.Misses > uint64(db.Stats.TotalPages()) {
				b.Errorf("%d misses: the queries did not all hit", st.Misses)
			}
		})
	}
}
