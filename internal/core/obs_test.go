package core_test

import (
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
// pattern and checks every instrumented policy reports its evictions
// with its own reason tag.
func TestInstrumentedPoliciesEmitEvictionEvents(t *testing.T) {
	specs := make([]pageSpec, 8)
	for i := range specs {
		specs[i] = dataPage(float64(i + 1))
	}
	cases := []struct {
		name   string
		policy buffer.Policy
		reason string
	}{
		{"LRU", core.NewLRU(), obs.ReasonLRU},
		{"FIFO", core.NewFIFO(), obs.ReasonFIFO},
		{"LRU-P", core.NewLRUP(), obs.ReasonPriority},
		{"SLRU", core.NewSLRU(page.CritA, 2), obs.ReasonSLRU},
		{"spatial", core.NewSpatial(page.CritA), obs.ReasonSpatial},
		{"LRU-2", core.NewLRUK(2), obs.ReasonLRUK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := buildStore(t, specs)
			m, err := buffer.NewEngine(s, tc.policy, 4)
			if err != nil {
				t.Fatal(err)
			}
			rec := &evictionRecorder{}
			m.SetSink(rec)
			for i := 0; i < 16; i++ {
				if _, err := m.Get(page.ID(i%8+1), buffer.AccessContext{QueryID: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if len(rec.events) == 0 {
				t.Fatal("no eviction events emitted")
			}
			if uint64(len(rec.events)) != m.Stats().Evictions {
				t.Errorf("%d events for %d evictions", len(rec.events), m.Stats().Evictions)
			}
			for _, e := range rec.events {
				if e.Reason != tc.reason {
					t.Fatalf("reason = %q, want %q", e.Reason, tc.reason)
				}
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
