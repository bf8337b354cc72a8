package main

import (
	"slices"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// windowTally is the reference -window is checked against: it counts the
// Request events a pool emits into consecutive windows of n, closing one
// as soon as it holds n requests.
type windowTally struct {
	obs.NopSink
	n      uint64
	ratios []float64
	cur    buffer.Stats
}

func (w *windowTally) Request(e obs.RequestEvent) {
	w.cur.Requests++
	if e.Hit {
		w.cur.Hits++
	}
	if w.cur.Requests == w.n {
		w.ratios = append(w.ratios, w.cur.HitRatio())
		w.cur = buffer.Stats{}
	}
}

// TestWindowedReplayMatchesRequestEvents: the windows -window prints are
// deltas of the pool's Stats, and they equal the windows counted from
// the pool's Request events — complete windows and the trailing partial
// one — on the bare, sharded and async layouts.
func TestWindowedReplayMatchesRequestEvents(t *testing.T) {
	db, err := experiment.Get(1, experiment.Options{Objects: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.Trace("INT-W-33", 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 97
	if tr.Len()%n == 0 || tr.Len() < 5*n {
		t.Fatalf("a %d-reference trace gives no partial window of %d; pick another n", tr.Len(), n)
	}
	fac, err := core.FactoryByName("ASB")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"bare", "sharded,shards=2", "async,shards=2"} {
		t.Run(spec, func(t *testing.T) {
			comp, err := buffer.ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := comp.Build(db.Store, fac.New, db.Frames(experiment.LargestFrac))
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close(pool)
			ref := &windowTally{n: n}
			pool.SetSink(ref)
			ratios, tail, err := windowedReplay(tr, pool, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(ratios) != tr.Len()/n || !slices.Equal(ratios, ref.ratios) {
				t.Errorf("windows from Stats %v,\nfrom events %v", ratios, ref.ratios)
			}
			if tail.Requests != uint64(tr.Len()%n) || tail.Requests != ref.cur.Requests || tail.Hits != ref.cur.Hits {
				t.Errorf("trailing window from Stats %+v, from events %+v", tail, ref.cur)
			}
			if slices.Max(ratios) == 0 {
				t.Error("no window has a hit: the check compares nothing")
			}
		})
	}
}
