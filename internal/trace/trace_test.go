package trace

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/queryset"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildFixture returns a small tree plus a window query set against it.
func buildFixture(t *testing.T) (*rtree.Tree, *storage.MemStore, queryset.Set) {
	t.Helper()
	g := dataset.USMainland(1)
	objs := g.Objects(2, 6000)
	s := storage.NewMemStore()
	tr, err := rtree.New(s, rtree.Params{
		MaxDirEntries: 16, MaxDataEntries: 12, MinFillFrac: 0.4, ReinsertFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tr.Insert(o.ID, o.MBR); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FinalizeStats(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	qs := queryset.UniformWindows(g.Space, 400, 100, 3)
	return tr, s, qs
}

func TestRecordProducesRefs(t *testing.T) {
	tr, _, qs := buildFixture(t)
	trc, err := Record(tr, qs)
	if err != nil {
		t.Fatal(err)
	}
	if trc.Name != qs.Name {
		t.Errorf("trace name = %q", trc.Name)
	}
	if trc.Len() < len(qs.Queries) {
		t.Fatalf("trace has %d refs for %d queries", trc.Len(), len(qs.Queries))
	}
	// Every query contributes at least the root access, in query order;
	// the root is the one page every query starts at.
	seen := make(map[uint64]bool)
	var last uint64
	for _, ref := range trc.Refs {
		if ref.Page == page.InvalidID {
			t.Fatal("invalid page in trace")
		}
		if ref.Query < last {
			t.Fatal("query IDs not monotone in trace")
		}
		last = ref.Query
		if !seen[ref.Query] && ref.Page != trc.Refs[0].Page {
			t.Fatalf("query %d starts at page %d, not at the root %d", ref.Query, ref.Page, trc.Refs[0].Page)
		}
		seen[ref.Query] = true
	}
	if len(seen) != len(qs.Queries) {
		t.Errorf("%d distinct queries in trace, want %d", len(seen), len(qs.Queries))
	}
}

func TestRecordDeterministic(t *testing.T) {
	tr, _, qs := buildFixture(t)
	a, err := Record(tr, qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(tr, qs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
}

// runLive executes the query set against the tree reading through the
// given buffer pool: the non-trace path, the oracle replay must equal.
func runLive(t *rtree.Tree, qs queryset.Set, p buffer.Pool) (buffer.Stats, error) {
	if err := p.Clear(); err != nil {
		return buffer.Stats{}, err
	}
	for _, q := range qs.Queries {
		ctx := buffer.AccessContext{QueryID: q.ID}
		err := t.Search(p, ctx, q.Rect, func(page.Entry) bool { return true })
		if err != nil {
			return buffer.Stats{}, fmt.Errorf("trace: live %s query %d: %w", qs.Name, q.ID, err)
		}
	}
	return p.Stats(), nil
}

// replay is ReplayOn through a fresh engine of the given capacity.
func replay(tr *Trace, store storage.Store, pol buffer.Policy, capacity int) (buffer.Stats, error) {
	m, err := buffer.NewEngine(store, pol, capacity)
	if err != nil {
		return buffer.Stats{}, err
	}
	return ReplayOn(tr, m)
}

// TestReplayEquivalentToLive is the correctness anchor of the experiment
// harness: replaying a recorded trace must produce exactly the same
// hit/miss counts as executing the queries live through the buffer, for
// every policy family. Each policy also replays once more with a counting
// sink attached, which must neither perturb the stats nor disagree with
// them — replay re-emits the event stream live execution would produce.
func TestReplayEquivalentToLive(t *testing.T) {
	tr, store, qs := buildFixture(t)
	capacity := 48
	cases := []struct {
		name string
		mk   func() buffer.Policy
	}{
		{"LRU", func() buffer.Policy { return core.NewLRU() }},
		{"FIFO", func() buffer.Policy { return core.NewFIFO() }},
		{"LRU-P", func() buffer.Policy { return core.NewLRUP() }},
		{"LRU-2", func() buffer.Policy { return core.NewLRUK(2) }},
		{"LRU-3", func() buffer.Policy { return core.NewLRUK(3) }},
		{"spatial-A", func() buffer.Policy { return core.NewSpatial(page.CritA) }},
		{"spatial-EO", func() buffer.Policy { return core.NewSpatial(page.CritEO) }},
		{"SLRU", func() buffer.Policy { return core.NewSLRU(page.CritA, 12) }},
		{"ASB", func() buffer.Policy { return core.NewASB(capacity, core.DefaultASBOptions()) }},
	}
	trc, err := Record(tr, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mLive, err := buffer.NewEngine(store, tc.mk(), capacity)
			if err != nil {
				t.Fatal(err)
			}
			live, err := runLive(tr, qs, mLive)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := replay(trc, store, tc.mk(), capacity)
			if err != nil {
				t.Fatal(err)
			}
			if live != replayed {
				t.Errorf("live %+v != replay %+v", live, replayed)
			}

			events := &tally{}
			mObserved, err := buffer.NewEngine(store, tc.mk(), capacity)
			if err != nil {
				t.Fatal(err)
			}
			mObserved.SetSink(events)
			observed, err := ReplayOn(trc, mObserved)
			if err != nil {
				t.Fatal(err)
			}
			if observed != live {
				t.Errorf("sink perturbs replay: %+v != %+v", observed, live)
			}
			if *events != (tally{Requests: live.Requests, Hits: live.Hits, Evictions: live.Evictions}) {
				t.Errorf("event counts %+v disagree with stats %+v", *events, live)
			}
		})
	}
}

// tally counts the events of a single-goroutine replay.
type tally struct {
	obs.NopSink
	Requests, Hits, Evictions uint64
}

func (c *tally) Request(e obs.RequestEvent) {
	c.Requests++
	if e.Hit {
		c.Hits++
	}
}

func (c *tally) Eviction(obs.EvictionEvent) { c.Evictions++ }

func TestReplayOnClearsEngine(t *testing.T) {
	tr, store, qs := buildFixture(t)
	trc, err := Record(tr, qs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := buffer.NewEngine(store, core.NewLRU(), 32)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ReplayOn(trc, m)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying again on the same manager must give identical stats
	// (cold start both times).
	b, err := ReplayOn(trc, m)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("consecutive replays differ: %+v vs %+v", a, b)
	}
}

func TestReplayUnknownPageFails(t *testing.T) {
	_, store, _ := buildFixture(t)
	bad := &Trace{Name: "bad", Refs: []Ref{{Query: 1, Page: 99999}}}
	if _, err := replay(bad, store, core.NewLRU(), 8); err == nil {
		t.Error("replay of unknown page should fail")
	}
}

func TestPointQueryTraceShorterThanWindows(t *testing.T) {
	tr, _, _ := buildFixture(t)
	g := dataset.USMainland(1)
	points := queryset.Uniform(g.Space, 200, 9)
	windows := queryset.UniformWindows(g.Space, 200, 33, 9)
	tp, err := Record(tr, points)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := Record(tr, windows)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Len() >= tw.Len() {
		t.Errorf("point trace (%d refs) should be shorter than big-window trace (%d refs)",
			tp.Len(), tw.Len())
	}
	_ = geom.Rect{}
}
