package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/page"
)

func TestLRUKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLRUK(0) should panic")
		}
	}()
	core.NewLRUK(0)
}

func TestLRUKName(t *testing.T) {
	if got := core.NewLRUK(2).Name(); got != "LRU-2" {
		t.Errorf("name = %q", got)
	}
}

func TestLRU2PrefersFrequentlyReusedPages(t *testing.T) {
	// The defining LRU-K behaviour: a page referenced twice (by distinct
	// queries) beats a page referenced once, even if the once-referenced
	// page is more recent.
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewLRUK(2), 2)
	// Page 1: referenced by queries 1 and 3 → two uncorrelated refs.
	// Page 2: referenced by query 2 only → HIST(2,2) = 0.
	runOn(t, m, []access{q(1, 1), q(2, 2), q(1, 3)})
	// Miss on page 3 (query 4): victim must be page 2 (oldest HIST(·,2)),
	// not page 1, although page 2 was referenced after page 1's first ref.
	runOn(t, m, []access{q(3, 4)})
	if m.Contains(2) || !resident(m, 1, 3) {
		t.Errorf("resident = %v, want [1 3]", m.ResidentIDs())
	}
}

func TestLRUKCorrelatedReferencesCollapse(t *testing.T) {
	// Repeated references within one query are correlated: they must not
	// push a second timestamp into HIST. Page 1 referenced 5× by query 1
	// still has only one uncorrelated reference, so it loses to page 2
	// referenced by queries 2 and 3.
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewLRUK(2), 2)
	runOn(t, m, []access{
		q(1, 1), q(1, 1), q(1, 1), q(1, 1), q(1, 1),
		q(2, 2), q(2, 3),
	})
	runOn(t, m, []access{q(3, 4)})
	if m.Contains(1) || !resident(m, 2, 3) {
		t.Errorf("resident = %v, want [2 3]", m.ResidentIDs())
	}
}

func TestLRUKExcludesCurrentQueryPages(t *testing.T) {
	// The victim must not be a page whose last reference is correlated
	// with the current access (paper §2.2 case 3). Both pages have
	// incomplete histories (HIST(·,2) = 0), so the tie-break favours the
	// older HIST(·,1): page 2 (t=1) over page 1 (t=2). But the fault on
	// page 3 comes from query 5 — the query that last referenced page 2 —
	// so page 2 is excluded and page 1 must be evicted instead.
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewLRUK(2), 2)
	runOn(t, m, []access{q(2, 5), q(1, 9)})
	runOn(t, m, []access{q(3, 5)})
	if m.Contains(1) || !resident(m, 2, 3) {
		t.Errorf("resident = %v, want [2 3]", m.ResidentIDs())
	}
}

func TestLRUKFallbackWhenAllCorrelated(t *testing.T) {
	// If every resident page was last referenced by the current query,
	// the exclusion rule would deadlock; the implementation must fall
	// back to evicting something.
	s := buildStore(t, uniformPages(3, 1))
	m := mustEngine(t, s, core.NewLRUK(2), 2)
	runOn(t, m, []access{q(1, 7), q(2, 7), q(3, 7)})
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestLRUKHistorySurvivesEviction(t *testing.T) {
	// A page's references before eviction must still count after it is
	// reloaded. Trace (capacity 2, K=2):
	//   q(1,1) q(1,2)          → {1}, HIST(1) = [2,1]
	//   q(2,3)                 → {1,2}, HIST(2) = [3,·]
	//   q(3,4)                 → evicts 2 (HIST(2,2)=0 < HIST(1,2)=1)
	//   q(1,5)                 → hit, HIST(1) = [5,2]
	//   q(2,6)                 → RELOAD of 2; retained history makes
	//                            HIST(2) = [6,3]; evicts 3 (HIST=0)
	//   q(4,7)                 → victim: HIST(1,2)=2 < HIST(2,2)=3,
	//                            so page 1 goes — only possible because
	//                            page 2 kept its pre-eviction reference.
	s := buildStore(t, uniformPages(4, 1))
	pol := core.NewLRUK(2)
	m := mustEngine(t, s, pol, 2)
	runOn(t, m, []access{q(1, 1), q(1, 2), q(2, 3), q(3, 4), q(1, 5), q(2, 6), q(4, 7)})
	if m.Contains(1) || !resident(m, 2, 4) {
		t.Errorf("resident = %v, want [2 4]", m.ResidentIDs())
	}
	if pol.HistRecords() != 4 {
		t.Errorf("HistRecords = %d, want 4 (histories retained)", pol.HistRecords())
	}
	if pol.HistBytes() <= 0 {
		t.Error("HistBytes should be positive")
	}
}

func TestLRUKHistoryGrowsBeyondBufferSize(t *testing.T) {
	// The paper's criticism: LRU-K memory grows with the number of pages
	// ever buffered, not the buffer size.
	n := 50
	s := buildStore(t, uniformPages(n, 1))
	pol := core.NewLRUK(2)
	m := mustEngine(t, s, pol, 4)
	var seq []access
	for i := 1; i <= n; i++ {
		seq = append(seq, q(page.ID(i), uint64(i)))
	}
	runOn(t, m, seq)
	if pol.HistRecords() != n {
		t.Errorf("HistRecords = %d, want %d", pol.HistRecords(), n)
	}
	if m.Len() != 4 {
		t.Errorf("Len = %d, want 4", m.Len())
	}
}

func TestLRUKResetDropsHistory(t *testing.T) {
	s := buildStore(t, uniformPages(3, 1))
	pol := core.NewLRUK(2)
	m := mustEngine(t, s, pol, 2)
	runOn(t, m, seqOf(1, 2, 3))
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if pol.HistRecords() != 0 {
		t.Errorf("HistRecords after reset = %d", pol.HistRecords())
	}
}

func TestLRU1BehavesLikeLRUOnUncorrelatedAccesses(t *testing.T) {
	// With K=1 and every access its own query, LRU-1's HIST(p,1) is the
	// last-access time, so eviction order matches LRU.
	specs := uniformPages(6, 1)
	seq := seqOf(1, 2, 3, 1, 4, 5, 2, 6, 1, 3, 4, 6, 5, 2, 1)
	sA := buildStore(t, specs)
	sB := buildStore(t, specs)
	missA := run(t, sA, core.NewLRU(), 3, seq)
	missB := run(t, sB, core.NewLRUK(1), 3, seq)
	if !idsEqual(missA, missB) {
		t.Errorf("LRU misses %v != LRU-1 misses %v", missA, missB)
	}
}
