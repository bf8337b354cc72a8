package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/page"
)

func TestLRUEvictionOrder(t *testing.T) {
	s := buildStore(t, uniformPages(4, 1))
	// Capacity 2: request 1,2 then 3 → evict 1; then 1 → evict 2.
	misses := run(t, s, core.NewLRU(), 2, seqOf(1, 2, 3, 1))
	want := []page.ID{1, 2, 3, 1}
	if !idsEqual(misses, want) {
		t.Errorf("misses = %v, want %v", misses, want)
	}
}

func TestLRUHitRefreshesRecency(t *testing.T) {
	s := buildStore(t, uniformPages(3, 1))
	// 1,2 fill; hit 1; request 3 must evict 2 (LRU), not 1.
	m := mustEngine(t, s, core.NewLRU(), 2)
	runOn(t, m, seqOf(1, 2))
	runOn(t, m, []access{q(1, 3)}) // hit on 1
	runOn(t, m, []access{q(3, 4)})
	if !resident(m, 1, 3) || m.Contains(2) {
		t.Errorf("resident = %v, want [1 3]", m.ResidentIDs())
	}
}

func TestLRUSequentialFlooding(t *testing.T) {
	// The classic LRU weakness: cyclic access to capacity+1 pages misses
	// every time. This anchors the baseline the paper improves on.
	s := buildStore(t, uniformPages(4, 1))
	var seq []access
	for round := 0; round < 5; round++ {
		for id := page.ID(1); id <= 4; id++ {
			seq = append(seq, q(id, uint64(len(seq)+1)))
		}
	}
	misses := run(t, s, core.NewLRU(), 3, seq)
	if len(misses) != len(seq) {
		t.Errorf("misses = %d, want %d (every access)", len(misses), len(seq))
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewFIFO(), 2)
	runOn(t, m, seqOf(1, 2))
	// Hit page 1 repeatedly; FIFO still evicts 1 first.
	runOn(t, m, []access{q(1, 10), q(1, 11)})
	runOn(t, m, []access{q(3, 12)})
	if m.Contains(1) || !resident(m, 2, 3) {
		t.Errorf("resident = %v, want [2 3]", m.ResidentIDs())
	}
}

func TestLRUNames(t *testing.T) {
	if core.NewLRU().Name() != "LRU" {
		t.Error("LRU name")
	}
	if core.NewFIFO().Name() != "FIFO" {
		t.Error("FIFO name")
	}
}

func TestLRUReset(t *testing.T) {
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewLRU(), 2)
	runOn(t, m, seqOf(1, 2))
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	// After clear, the same sequence behaves as from cold.
	misses := runOn(t, m, seqOf(1, 2, 3, 1))
	want := []page.ID{1, 2, 3, 1}
	if !idsEqual(misses, want) {
		t.Errorf("misses after reset = %v, want %v", misses, want)
	}
}
