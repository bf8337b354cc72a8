package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/page"
)

func TestSLRUPanicsOnBadCandidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSLRU with candidate 0 should panic")
		}
	}()
	core.NewSLRU(page.CritA, 0)
}

func TestSLRUName(t *testing.T) {
	p := core.NewSLRU(page.CritA, 7)
	if p.Name() != "SLRU(A,7)" {
		t.Errorf("name = %q", p.Name())
	}
	if p.CandidateSize() != 7 {
		t.Errorf("CandidateSize = %d", p.CandidateSize())
	}
}

func TestSLRUCandidateOneIsLRU(t *testing.T) {
	// With a candidate set of 1 the spatial criterion has no choice:
	// behaviour must equal pure LRU on any sequence.
	rng := rand.New(rand.NewSource(21))
	specs := make([]pageSpec, 20)
	for i := range specs {
		specs[i] = dataPage(float64(rng.Intn(50) + 1))
	}
	var seq []access
	for i := 0; i < 800; i++ {
		seq = append(seq, q(page.ID(rng.Intn(20)+1), uint64(i)))
	}
	sA := buildStore(t, specs)
	sB := buildStore(t, specs)
	missLRU := run(t, sA, core.NewLRU(), 5, seq)
	missSLRU := run(t, sB, core.NewSLRU(page.CritA, 1), 5, seq)
	if !idsEqual(missLRU, missSLRU) {
		t.Errorf("SLRU(1) diverged from LRU: %d vs %d misses", len(missSLRU), len(missLRU))
	}
}

func TestSLRUCandidateFullIsSpatial(t *testing.T) {
	// With the candidate set spanning the whole buffer, behaviour must
	// equal the pure spatial policy (assuming distinct criterion values).
	rng := rand.New(rand.NewSource(22))
	specs := make([]pageSpec, 20)
	for i := range specs {
		specs[i] = dataPage(float64(i+1) * 3) // distinct areas
	}
	var seq []access
	for i := 0; i < 800; i++ {
		seq = append(seq, q(page.ID(rng.Intn(20)+1), uint64(i)))
	}
	sA := buildStore(t, specs)
	sB := buildStore(t, specs)
	missSpatial := run(t, sA, core.NewSpatial(page.CritA), 5, seq)
	missSLRU := run(t, sB, core.NewSLRU(page.CritA, 5), 5, seq)
	if !idsEqual(missSpatial, missSLRU) {
		t.Errorf("SLRU(cap) diverged from spatial: %d vs %d misses",
			len(missSLRU), len(missSpatial))
	}
}

func TestSLRUVictimInsideCandidateSet(t *testing.T) {
	// Buffer of 4, candidate 2: the two most recently used pages are
	// protected even when they have tiny areas.
	s := buildStore(t, []pageSpec{
		dataPage(100), dataPage(50), dataPage(1), dataPage(2), dataPage(75),
	})
	m := mustEngine(t, s, core.NewSLRU(page.CritA, 2), 4)
	// LRU order after this: [3 4] recent, [1 2] old → candidates {1,2};
	// victim is 2 (area 50 < 100) despite pages 3,4 having areas 1,2.
	runOn(t, m, seqOf(1, 2, 3, 4))
	runOn(t, m, []access{q(5, 9)})
	if m.Contains(2) || !resident(m, 1, 3, 4, 5) {
		t.Errorf("resident = %v, want [1 3 4 5]", m.ResidentIDs())
	}
}

func TestSLRUTieKeepsOlder(t *testing.T) {
	// Equal areas in the candidate set: evict the least recently used.
	s := buildStore(t, uniformPages(4, 7))
	m := mustEngine(t, s, core.NewSLRU(page.CritA, 3), 3)
	runOn(t, m, seqOf(1, 2, 3))
	runOn(t, m, []access{q(4, 9)})
	if m.Contains(1) || !resident(m, 2, 3, 4) {
		t.Errorf("resident = %v, want [2 3 4]", m.ResidentIDs())
	}
}

func TestSLRUReset(t *testing.T) {
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewSLRU(page.CritA, 2), 2)
	runOn(t, m, seqOf(1, 2, 3))
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	misses := runOn(t, m, seqOf(1, 2))
	if len(misses) != 2 {
		t.Errorf("cold misses = %d, want 2", len(misses))
	}
}
