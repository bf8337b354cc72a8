package repro

import (
	"testing"

	"repro/internal/buffer"
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
