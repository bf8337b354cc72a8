package core_test

import (
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/page"
)

// TestSteadyStateEvictionAllocsUnchangedBySink drives instrumented
// policies through a manager in steady state (every request a miss +
// eviction, the worst case for event volume). Policies may allocate aux
// records per admission, so the assertion is relative: attaching the
// no-op sink must not change the allocation count per request.
func TestSteadyStateEvictionAllocsUnchangedBySink(t *testing.T) {
	specs := make([]pageSpec, 8)
	for i := range specs {
		specs[i] = dataPage(float64(i + 1))
	}
	mk := map[string]func() buffer.Policy{
		"LRU":     func() buffer.Policy { return core.NewLRU() },
		"FIFO":    func() buffer.Policy { return core.NewFIFO() },
		"LRU-P":   func() buffer.Policy { return core.NewLRUP() },
		"SLRU":    func() buffer.Policy { return core.NewSLRU(page.CritA, 2) },
		"ASB":     func() buffer.Policy { return core.NewASB(4, core.DefaultASBOptions()) },
		"LRU-2":   func() buffer.Policy { return core.NewLRUK(2) },
		"spatial": func() buffer.Policy { return core.NewSpatial(page.CritA) },
	}
	for name, newPolicy := range mk {
		t.Run(name, func(t *testing.T) {
			measure := func(sink obs.Sink) float64 {
				s := buildStore(t, specs)
				m, err := buffer.NewEngine(s, newPolicy(), 4)
				if err != nil {
					t.Fatal(err)
				}
				if sink != nil {
					m.SetSink(sink)
				}
				// Warm up so every further access cycles miss+evict.
				next := 0
				get := func() {
					id := page.ID(next%8 + 1)
					next++
					if _, err := m.Get(id, buffer.AccessContext{QueryID: uint64(next)}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 16; i++ {
					get()
				}
				return testing.AllocsPerRun(500, get)
			}
			base := measure(nil)
			nop := measure(obs.NopSink{})
			if nop != base {
				t.Errorf("no-op sink changes allocations: %.2f → %.2f per request", base, nop)
			}
		})
	}
}

// TestInstrumentedPoliciesEmitEvictionEvents replays a miss-heavy access
// pattern through every named policy on every pool layout and checks
// that each eviction the engine counted was reported exactly once, with
// the policy's own reason tag, and reached the Counters aggregator under
// that reason — its per-reason counts sum to Stats.Evictions.
func TestInstrumentedPoliciesEmitEvictionEvents(t *testing.T) {
	specs := make([]pageSpec, 20)
	for i := range specs {
		specs[i] = dataPage(float64(i + 1))
	}
	reasons := map[string][]string{
		"LRU": {obs.ReasonLRU}, "PIN": {obs.ReasonLRU}, "FIFO": {obs.ReasonFIFO},
		"LRU-T": {obs.ReasonPriority}, "LRU-P": {obs.ReasonPriority},
		"LRU-2": {obs.ReasonLRUK}, "LRU-3": {obs.ReasonLRUK}, "LRU-5": {obs.ReasonLRUK},
		"A": {obs.ReasonSpatial}, "EA": {obs.ReasonSpatial}, "M": {obs.ReasonSpatial},
		"EM": {obs.ReasonSpatial}, "EO": {obs.ReasonSpatial},
		"SLRU 50%": {obs.ReasonSLRU}, "SLRU 25%": {obs.ReasonSLRU},
		"ASB":   {obs.ReasonASBOverflow, obs.ReasonASBMain},
		"CLOCK": {obs.ReasonClock},
	}
	for _, f := range shardableFactories() {
		t.Run(f.Name, func(t *testing.T) {
			for _, layout := range []string{"bare", "locked", "sharded,shards=2", "async,shards=2"} {
				t.Run(layout, func(t *testing.T) {
					pool := buildComposition(t, layout, buildStore(t, specs), f, 4)
					defer closePool(t, pool)
					rec := &evictionRecorder{}
					var counters obs.Counters
					pool.SetSink(obs.Tee(rec, &counters))
					for i := 0; i < 60; i++ {
						if _, err := pool.Get(page.ID(i%20+1), buffer.AccessContext{QueryID: uint64(i)}); err != nil {
							t.Fatal(err)
						}
					}
					evictions := pool.Stats().Evictions
					if evictions == 0 {
						t.Fatal("replay evicted nothing")
					}
					if uint64(len(rec.events)) != evictions {
						t.Errorf("%d events for %d evictions", len(rec.events), evictions)
					}
					for _, e := range rec.events {
						if !slices.Contains(reasons[f.Name], e.Reason) {
							t.Fatalf("reason = %q, want one of %v", e.Reason, reasons[f.Name])
						}
					}
					filed := uint64(0)
					counters.Snapshot().ByReason.Each(func(reason string, n uint64) {
						filed += n
						if !slices.Contains(reasons[f.Name], reason) {
							t.Errorf("counters filed %d evictions under %q", n, reason)
						}
					})
					if filed != evictions {
						t.Errorf("counters filed %d evictions by reason, Stats.Evictions = %d", filed, evictions)
					}
				})
			}
		})
	}
}

// TestASBEvictionReasons checks ASB distinguishes overflow-FIFO
// evictions from direct main-part evictions.
func TestASBEvictionReasons(t *testing.T) {
	specs := make([]pageSpec, 12)
	for i := range specs {
		specs[i] = dataPage(float64(i + 1))
	}
	s := buildStore(t, specs)
	m, err := buffer.NewEngine(s, core.NewASB(6, core.DefaultASBOptions()), 6)
	if err != nil {
		t.Fatal(err)
	}
	rec := &evictionRecorder{}
	m.SetSink(rec)
	for i := 0; i < 24; i++ {
		if _, err := m.Get(page.ID(i%12+1), buffer.AccessContext{QueryID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.events) == 0 {
		t.Fatal("no eviction events")
	}
	for _, e := range rec.events {
		if e.Reason != obs.ReasonASBOverflow && e.Reason != obs.ReasonASBMain {
			t.Fatalf("unexpected reason %q", e.Reason)
		}
		if e.Reason == obs.ReasonASBOverflow && e.LRURank < 0 {
			t.Errorf("overflow eviction without FIFO rank: %+v", e)
		}
	}
}

type evictionRecorder struct {
	obs.NopSink
	events []obs.EvictionEvent
}

func (r *evictionRecorder) Eviction(e obs.EvictionEvent) { r.events = append(r.events, e) }
