package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
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
				if _, err := trace.Replay(tr, db.Store, f.New(frames), frames); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateWorkload runs the mixed query/insert/delete workload
// (the paper's future-work item 2) under each policy, reporting physical
// reads + write-backs as the io/op metric.
func BenchmarkUpdateWorkload(b *testing.B) {
	factories := make([]core.Factory, 0, 4)
	for _, n := range []string{"LRU", "LRU-2", "A", "ASB"} {
		f, err := core.FactoryByName(n)
		if err != nil {
			b.Fatal(err)
		}
		factories = append(factories, f)
	}
	mix := experiment.DefaultUpdateMix()
	for _, f := range factories {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var io uint64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunUpdateWorkload(1, 12_000, 0.03,
					[]core.Factory{f}, mix, 1)
				if err != nil {
					b.Fatal(err)
				}
				io = res[0].IO
			}
			b.ReportMetric(float64(io), "io/op")
		})
	}
}
