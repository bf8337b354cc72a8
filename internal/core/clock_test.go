package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
)

func TestClockSecondChance(t *testing.T) {
	// Pages 1,2 admitted; page 1 hit (ref bit set). Admitting page 3
	// sweeps: page 1 gets its second chance (bit cleared), page 2 is
	// evicted.
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewClock(), 2)
	runOn(t, m, seqOf(1, 2))
	runOn(t, m, []access{q(1, 5)})
	runOn(t, m, []access{q(3, 6)})
	if m.Contains(2) || !resident(m, 1, 3) {
		t.Errorf("resident = %v, want [1 3]", m.ResidentIDs())
	}
}

func TestClockDegradesToFIFOWithoutHits(t *testing.T) {
	// Without hits, CLOCK evicts in admission order.
	s := buildStore(t, uniformPages(4, 1))
	m := mustEngine(t, s, core.NewClock(), 2)
	misses := runOn(t, m, seqOf(1, 2, 3, 4))
	if len(misses) != 4 {
		t.Fatalf("misses = %v", misses)
	}
	if !resident(m, 3, 4) {
		t.Errorf("resident = %v, want [3 4]", m.ResidentIDs())
	}
}

func TestClockApproximatesLRU(t *testing.T) {
	// On a random workload CLOCK should land within a reasonable factor
	// of LRU's miss count (it is its approximation).
	rng := rand.New(rand.NewSource(51))
	specs := uniformPages(60, 1)
	var seq []access
	for i := 0; i < 4000; i++ {
		id := page.ID(rng.Intn(20) + 1)
		if rng.Intn(3) == 0 {
			id = page.ID(rng.Intn(60) + 1)
		}
		seq = append(seq, q(id, uint64(i)))
	}
	sA := buildStore(t, specs)
	sB := buildStore(t, specs)
	lru := len(run(t, sA, core.NewLRU(), 10, seq))
	clk := len(run(t, sB, core.NewClock(), 10, seq))
	if float64(clk) > 1.25*float64(lru) || float64(clk) < 0.75*float64(lru) {
		t.Errorf("CLOCK misses %d far from LRU %d", clk, lru)
	}
}

func TestClockChurnStaysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s := buildStore(t, uniformPages(50, 1))
	m := mustEngine(t, s, core.NewClock(), 7)
	for i := 0; i < 5000; i++ {
		id := page.ID(rng.Intn(50) + 1)
		if _, err := m.Get(id, buffer.AccessContext{QueryID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if m.Len() > 7 {
			t.Fatalf("overflow at step %d", i)
		}
	}
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if misses := runOn(t, m, seqOf(1, 2)); len(misses) != 2 {
		t.Error("post-reset should cold-miss")
	}
}

func TestClockAllPinned(t *testing.T) {
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewClock(), 2)
	ctx := buffer.AccessContext{}
	if _, err := m.Fix(1, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fix(2, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(3, ctx); err == nil {
		t.Error("all-pinned should fail")
	}
}

func TestPinLevelsKeepsDirectory(t *testing.T) {
	// Levels: page1 root (2), page2 mid (1), pages 3-5 leaves (0).
	specs := []pageSpec{
		{typ: page.TypeDirectory, level: 2, area: 1},
		{typ: page.TypeDirectory, level: 1, area: 1},
		dataPage(1), dataPage(1), dataPage(1),
	}
	s := buildStore(t, specs)
	m := mustEngine(t, s, core.NewPinLevels(1), 3)
	runOn(t, m, seqOf(1, 2)) // directory in, oldest
	runOn(t, m, seqOf(3, 4, 5))
	// Leaves churn; directory pages stay pinned despite being older.
	if !resident(m, 1, 2) {
		t.Errorf("directory evicted: %v", m.ResidentIDs())
	}
}

func TestPinLevelsFallbackWhenOnlyPinnedRemain(t *testing.T) {
	// A buffer full of pinned-level pages must still evict.
	specs := []pageSpec{
		{typ: page.TypeDirectory, level: 1, area: 1},
		{typ: page.TypeDirectory, level: 1, area: 1},
		{typ: page.TypeDirectory, level: 1, area: 1},
	}
	s := buildStore(t, specs)
	m := mustEngine(t, s, core.NewPinLevels(1), 2)
	misses := runOn(t, m, seqOf(1, 2, 3))
	if len(misses) != 3 || m.Len() != 2 {
		t.Errorf("misses %v, len %d", misses, m.Len())
	}
	if core.NewPinLevels(1).Name() != "PIN" {
		t.Error("name")
	}
}
