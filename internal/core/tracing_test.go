package core_test

import (
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

// tracedStack builds a MemStore of n single-entry pages with distinct
// areas and an ASB-managed buffer with an every-request tracer attached.
func tracedStack(t *testing.T, n, capacity int) (*buffer.Engine, *tracing.Tracer) {
	t.Helper()
	s := storage.NewMemStore()
	for i := 0; i < n; i++ {
		id := s.Allocate()
		p := page.New(id, page.TypeData, 0, 1)
		side := math.Sqrt(float64(i + 1))
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, side, side), ObjID: uint64(i)})
		p.Recompute()
		if err := s.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	m, err := buffer.NewEngine(s, core.NewASB(capacity, core.DefaultASBOptions()), capacity)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 256)
	m.SetTracer(tr)
	return m, tr
}

// TestASBTracedEndToEnd drives a full miss-and-evict workload through
// Engine + ASB + MemStore and checks the acceptance shape of the
// resulting traces: a Get root span with a victim-select child carrying
// ASB criterion values and a store.Read child carrying byte counts.
func TestASBTracedEndToEnd(t *testing.T) {
	const pages, capacity = 32, 8
	m, tr := tracedStack(t, pages, capacity)

	for i := 0; i < 2; i++ { // second pass evicts on every miss
		for id := page.ID(1); id <= pages; id++ {
			if _, err := m.Get(id, buffer.AccessContext{QueryID: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var sawVictim, sawRead bool
	for _, trc := range tr.Traces(0) {
		if trc[0].Kind != tracing.KindGet {
			t.Fatalf("root span is %v, want Get", trc[0].Kind)
		}
		for _, sp := range trc[1:] {
			switch sp.Kind {
			case tracing.KindVictim:
				sawVictim = true
				if sp.Parent != 0 {
					t.Fatalf("victim span not nested under root: %+v", sp)
				}
				if sp.CritKind != "A" {
					t.Fatalf("victim criterion kind %q, want A", sp.CritKind)
				}
				if sp.Reason == "" || sp.Page == page.InvalidID {
					t.Fatalf("victim span missing payload: %+v", sp)
				}
			case tracing.KindStoreRead:
				sawRead = true
				if sp.Parent != 0 || sp.Bytes <= 0 || sp.Page == page.InvalidID {
					t.Fatalf("bad store.Read span: %+v", sp)
				}
			}
		}
	}
	if !sawVictim || !sawRead {
		t.Fatalf("trace lacks victim-select (%v) or store.Read (%v) spans", sawVictim, sawRead)
	}
}

// TestASBTracedAdapt provokes overflow hits and checks the asb-adapt
// spans carry the candidate-size transition and the §4.2 signal.
func TestASBTracedAdapt(t *testing.T) {
	const pages, capacity = 40, 10
	m, tr := tracedStack(t, pages, capacity)
	asb := m.Policy().(*core.ASB)

	// Work on a resident-sized set: the first round fills the buffer
	// (demoting the SLRU victims into the overflow part), later rounds
	// hit everything — including the overflow pages, which triggers
	// adaptation on promotion.
	for round := 0; round < 6; round++ {
		for id := page.ID(1); id <= capacity; id++ {
			if _, err := m.Get(id, buffer.AccessContext{QueryID: uint64(round)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if asb.Adaptations() == 0 {
		t.Fatal("workload produced no overflow hits; test is vacuous")
	}

	var adapts int
	for _, trc := range tr.Traces(0) {
		for _, sp := range trc {
			if sp.Kind != tracing.KindAdapt {
				continue
			}
			adapts++
			if sp.Parent != 0 {
				t.Fatalf("adapt span not nested under root: %+v", sp)
			}
			if sp.OldC < 1 || sp.NewC < 1 {
				t.Fatalf("adapt span missing candidate sizes: %+v", sp)
			}
			if sp.Page == page.InvalidID {
				t.Fatalf("adapt span missing page: %+v", sp)
			}
		}
	}
	// The ring holds the newest 256 traces; at least the recent
	// adaptations must be visible.
	if adapts == 0 {
		t.Fatal("no asb-adapt spans recorded despite adaptations")
	}
}

// TestSLRUAndSpatialVictimSpans checks the other instrumented policies
// emit victim-select spans with their criterion payloads.
func TestSLRUAndSpatialVictimSpans(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy buffer.Policy
	}{
		{"SLRU", core.NewSLRU(page.CritA, 3)},
		{"Spatial", core.NewSpatial(page.CritA)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := storage.NewMemStore()
			for i := 0; i < 12; i++ {
				id := s.Allocate()
				p := page.New(id, page.TypeData, 0, 1)
				side := math.Sqrt(float64(i + 1))
				p.Append(page.Entry{MBR: geom.NewRect(0, 0, side, side)})
				p.Recompute()
				if err := s.Write(p); err != nil {
					t.Fatal(err)
				}
			}
			m, err := buffer.NewEngine(s, tc.policy, 4)
			if err != nil {
				t.Fatal(err)
			}
			tr := tracing.NewTracer(1, 1, 64)
			m.SetTracer(tr)
			for id := page.ID(1); id <= 12; id++ {
				if _, err := m.Get(id, buffer.AccessContext{}); err != nil {
					t.Fatal(err)
				}
			}
			var victims int
			for _, trc := range tr.Traces(0) {
				for _, sp := range trc {
					if sp.Kind != tracing.KindVictim {
						continue
					}
					victims++
					if sp.CritKind != "A" || sp.Reason == "" || sp.Page == page.InvalidID {
						t.Fatalf("victim span missing payload: %+v", sp)
					}
					if tc.name == "SLRU" && sp.CritWin > sp.CritLose {
						// SLRU scans a candidate set, so the winner's
						// criterion is ≤ the worst scanned one.
						t.Fatalf("winning criterion %v larger than losing %v", sp.CritWin, sp.CritLose)
					}
					if tc.name == "Spatial" && sp.Rank != -1 {
						t.Fatalf("spatial victim rank %d, want -1", sp.Rank)
					}
				}
			}
			if victims == 0 {
				t.Fatal("no victim-select spans recorded")
			}
		})
	}
}
