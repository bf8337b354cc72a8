package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/storage"
)

func TestSpatialNamesAndCriterion(t *testing.T) {
	for _, c := range criteria {
		if p := core.NewSpatial(c); p.Name() != c.String() {
			t.Errorf("name = %q, want %q", p.Name(), c.String())
		}
	}
}

func TestSpatialEvictsSmallestArea(t *testing.T) {
	// Pages with areas 9, 1, 4: the area-1 page must go first even if it
	// is the most recently used.
	s := buildStore(t, []pageSpec{dataPage(9), dataPage(1), dataPage(4), dataPage(25)})
	m := mustEngine(t, s, core.NewSpatial(page.CritA), 3)
	runOn(t, m, seqOf(1, 2, 3))
	runOn(t, m, []access{q(2, 7)}) // touch the small page — recency must not save it
	runOn(t, m, []access{q(4, 8)})
	if m.Contains(2) || !resident(m, 1, 3, 4) {
		t.Errorf("resident = %v, want [1 3 4]", m.ResidentIDs())
	}
}

func TestSpatialLRUTieBreak(t *testing.T) {
	// Equal criterion everywhere → pure LRU behaviour (paper §2.3 step 2).
	specs := uniformPages(5, 4)
	seq := seqOf(1, 2, 3, 1, 4, 2, 5, 1, 3)
	sA := buildStore(t, specs)
	sB := buildStore(t, specs)
	missLRU := run(t, sA, core.NewLRU(), 3, seq)
	missSpatial := run(t, sB, core.NewSpatial(page.CritA), 3, seq)
	if !idsEqual(missLRU, missSpatial) {
		t.Errorf("spatial with equal criteria %v != LRU %v", missSpatial, missLRU)
	}
}

func TestSpatialKeepsLargePageForever(t *testing.T) {
	// One huge page and many small churning pages: the huge page must
	// never be evicted by the A policy.
	specs := []pageSpec{dataPage(1e6)}
	specs = append(specs, uniformPages(10, 1)...)
	s := buildStore(t, specs)
	m := mustEngine(t, s, core.NewSpatial(page.CritA), 3)
	runOn(t, m, seqOf(1)) // huge page in
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		id := page.ID(rng.Intn(10) + 2)
		runOn(t, m, []access{q(id, uint64(i+2))})
		if !m.Contains(1) {
			t.Fatalf("huge page evicted at step %d", i)
		}
	}
}

func TestSpatialCriteriaDiffer(t *testing.T) {
	// Build pages where criterion EO orders differently from A: page 1 has
	// a large MBR but disjoint entries (EO=0); page 2 has a small MBR but
	// overlapping entries (EO>0).
	s := storage.NewMemStore()
	p1 := page.New(s.Allocate(), page.TypeData, 0, 2)
	p1.Append(page.Entry{MBR: rect(0, 0, 10, 10)})
	p1.Append(page.Entry{MBR: rect(90, 90, 100, 100)})
	p1.Recompute()
	p2 := page.New(s.Allocate(), page.TypeData, 0, 2)
	p2.Append(page.Entry{MBR: rect(0, 0, 2, 2)})
	p2.Append(page.Entry{MBR: rect(1, 1, 3, 3)})
	p2.Recompute()
	p3 := page.New(s.Allocate(), page.TypeData, 0, 1)
	p3.Append(page.Entry{MBR: rect(0, 0, 5, 5)})
	p3.Recompute()
	for _, p := range []*page.Page{p1, p2, p3} {
		if err := s.Write(p); err != nil {
			t.Fatal(err)
		}
	}

	// Under A: page 2 (area 9) loses to page 1 (area 10000).
	mA := mustEngine(t, s, core.NewSpatial(page.CritA), 2)
	runOn(t, mA, seqOf(1, 2))
	runOn(t, mA, []access{q(3, 5)})
	if mA.Contains(2) || !resident(mA, 1, 3) {
		t.Errorf("A: resident = %v, want [1 3]", mA.ResidentIDs())
	}

	// Under EO: page 1 (overlap 0) loses to page 2 (overlap 1).
	mEO := mustEngine(t, s, core.NewSpatial(page.CritEO), 2)
	runOn(t, mEO, seqOf(1, 2))
	runOn(t, mEO, []access{q(3, 5)})
	if mEO.Contains(1) || !resident(mEO, 2, 3) {
		t.Errorf("EO: resident = %v, want [2 3]", mEO.ResidentIDs())
	}
}

func TestSpatialSkipsPinnedVictim(t *testing.T) {
	s := buildStore(t, []pageSpec{dataPage(1), dataPage(9), dataPage(4)})
	m := mustEngine(t, s, core.NewSpatial(page.CritA), 2)
	// Pin the smallest page; the next-smallest must be evicted instead.
	if _, err := m.Fix(1, buffer.AccessContext{QueryID: 1}); err != nil {
		t.Fatal(err)
	}
	runOn(t, m, []access{q(2, 2)})
	runOn(t, m, []access{q(3, 3)})
	if !m.Contains(1) || m.Contains(2) || !m.Contains(3) {
		t.Errorf("resident = %v, want [1 3]", m.ResidentIDs())
	}
	if err := m.Unfix(1); err != nil {
		t.Fatal(err)
	}
}

func TestSpatialHeapConsistencyUnderChurn(t *testing.T) {
	// Property test: after a long random access sequence, the policy's
	// recency list tracks exactly the resident set, its window holds the
	// min(cand, resident) least recently used frames from the first
	// eviction on (all of them for the spatial policy), and every
	// eviction still succeeds.
	for _, pol := range []*core.SLRU{core.NewSpatial(page.CritEA), core.NewSLRU(page.CritEA, 3)} {
		rng := rand.New(rand.NewSource(99))
		specs := make([]pageSpec, 40)
		for i := range specs {
			specs[i] = dataPage(float64(rng.Intn(100) + 1))
		}
		s := buildStore(t, specs)
		m := mustEngine(t, s, pol, 7)
		for i := 0; i < 3000; i++ {
			id := page.ID(rng.Intn(40) + 1)
			runOn(t, m, []access{q(id, uint64(i/4))})
			list, window := pol.Len()
			if list != m.Len() {
				t.Fatalf("%s: list holds %d, resident %d at step %d", pol.Name(), list, m.Len(), i)
			}
			if built := m.Stats().Evictions > 0; built && window != min(pol.CandidateSize(), list) || !built && window != 0 {
				t.Fatalf("%s: window holds %d of %d frames after %d evictions at step %d", pol.Name(), window, list, m.Stats().Evictions, i)
			}
			if m.Len() > 7 {
				t.Fatalf("buffer overflowed: %d", m.Len())
			}
		}
	}
}

func TestSpatialReset(t *testing.T) {
	s := buildStore(t, uniformPages(3, 1))
	pol := core.NewSpatial(page.CritA)
	m := mustEngine(t, s, pol, 2)
	runOn(t, m, seqOf(1, 2, 3))
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if list, window := pol.Len(); list != 0 || window != 0 {
		t.Errorf("not cleared: %d frames listed, %d in the window", list, window)
	}
	misses := runOn(t, m, seqOf(1, 2))
	if len(misses) != 2 {
		t.Errorf("cold misses = %d, want 2", len(misses))
	}
}
