package buffer

import (
	"container/list"
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// testPolicy is a minimal FIFO policy for exercising manager mechanics.
type testPolicy struct {
	order   *list.List
	elems   map[*Frame]*list.Element
	admits  int
	hits    int
	evicts  int
	lastCtx AccessContext
}

func newTestPolicy() *testPolicy {
	return &testPolicy{order: list.New(), elems: make(map[*Frame]*list.Element)}
}

func (p *testPolicy) Name() string { return "test-fifo" }

func (p *testPolicy) OnAdmit(f *Frame, now uint64, ctx AccessContext) {
	p.admits++
	p.lastCtx = ctx
	p.elems[f] = p.order.PushBack(f)
}

func (p *testPolicy) OnHit(f *Frame, now uint64, ctx AccessContext) {
	p.hits++
	p.lastCtx = ctx
}

func (p *testPolicy) Victim(ctx AccessContext) Choice {
	for e := p.order.Front(); e != nil; e = e.Next() {
		if f := e.Value.(*Frame); !f.Pinned() {
			return Choice{Frame: f, Reason: "test", Rank: -1}
		}
	}
	return Choice{}
}

func (p *testPolicy) OnEvict(f *Frame) {
	p.evicts++
	p.order.Remove(p.elems[f])
	delete(p.elems, f)
}

func (p *testPolicy) Reset() {
	p.order.Init()
	clear(p.elems)
}

// newStore creates a MemStore with n single-entry pages (IDs 1..n).
func newStore(t testing.TB, n int) *storage.MemStore {
	t.Helper()
	s := storage.NewMemStore()
	for i := 0; i < n; i++ {
		id := s.Allocate()
		p := page.New(id, page.TypeData, 0, 1)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, float64(i+1), 1), ObjID: uint64(i)})
		p.Recompute()
		if err := s.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	return s
}

func TestNewEngineValidation(t *testing.T) {
	s := newStore(t, 1)
	if _, err := NewEngine(s, newTestPolicy(), 0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := NewEngine(nil, newTestPolicy(), 1); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := NewEngine(s, nil, 1); err == nil {
		t.Error("nil policy should fail")
	}
}

func TestHitMissAccounting(t *testing.T) {
	s := newStore(t, 5)
	pol := newTestPolicy()
	m, err := NewEngine(s, pol, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{QueryID: 1}

	// Three misses fill the buffer.
	for id := page.ID(1); id <= 3; id++ {
		if _, err := m.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Requests != 3 || st.Misses != 3 || st.Hits != 0 || st.Evictions != 0 {
		t.Errorf("after fill: %+v", st)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
	// Re-requesting resident pages: all hits, no physical reads.
	before := s.Stats().Reads
	for id := page.ID(1); id <= 3; id++ {
		if _, err := m.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	st = m.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Errorf("after hits: %+v", st)
	}
	if s.Stats().Reads != before {
		t.Error("hits caused physical reads")
	}
	// A fourth page evicts the FIFO-oldest (page 1).
	if _, err := m.Get(4, ctx); err != nil {
		t.Fatal(err)
	}
	if m.Contains(1) {
		t.Error("page 1 should have been evicted")
	}
	if !m.Contains(2) || !m.Contains(3) || !m.Contains(4) {
		t.Error("pages 2,3,4 should be resident")
	}
	st = m.Stats()
	if st.Evictions != 1 || st.DiskReads() != 4 {
		t.Errorf("after eviction: %+v", st)
	}
	if pol.admits != 4 || pol.hits != 3 || pol.evicts != 1 {
		t.Errorf("policy callbacks: admits=%d hits=%d evicts=%d", pol.admits, pol.hits, pol.evicts)
	}
}

func TestLastUseUpdatedAfterOnHit(t *testing.T) {
	s := newStore(t, 2)
	var sawOld bool
	pol := &hookPolicy{testPolicy: newTestPolicy()}
	pol.onHit = func(f *Frame, now uint64) {
		// During OnHit, LastUse must still be the previous access time.
		sawOld = f.LastUse < now
	}
	m, err := NewEngine(s, pol, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if !sawOld {
		t.Error("OnHit observed already-updated LastUse")
	}
}

// hookPolicy wraps testPolicy with an OnHit hook.
type hookPolicy struct {
	*testPolicy
	onHit func(f *Frame, now uint64)
}

func (p *hookPolicy) OnHit(f *Frame, now uint64, ctx AccessContext) {
	if p.onHit != nil {
		p.onHit(f, now)
	}
	p.testPolicy.OnHit(f, now, ctx)
}

func TestPinPreventsEviction(t *testing.T) {
	s := newStore(t, 3)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	if _, err := m.Fix(1, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(2, ctx); err != nil {
		t.Fatal(err)
	}
	// Page 1 is pinned; admitting page 3 must evict page 2.
	if _, err := m.Get(3, ctx); err != nil {
		t.Fatal(err)
	}
	if !m.Contains(1) || m.Contains(2) || !m.Contains(3) {
		t.Errorf("resident: %v", m.ResidentIDs())
	}
	if err := m.Unfix(1); err != nil {
		t.Fatal(err)
	}
	// Unfix errors.
	if err := m.Unfix(1); err == nil {
		t.Error("double unfix should fail")
	}
	if err := m.Unfix(99); err == nil {
		t.Error("unfix of non-resident page should fail")
	}
}

func TestAllPinned(t *testing.T) {
	s := newStore(t, 3)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	if _, err := m.Fix(1, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fix(2, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(3, ctx); !errors.Is(err, errAllPinned) {
		t.Errorf("err = %v, want errAllPinned", err)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	s := newStore(t, 3)
	m, err := NewEngine(s, newTestPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDirty(2); err == nil {
		t.Error("marking non-resident page dirty should fail")
	}
	w0 := s.Stats().Writes
	if _, err := m.Get(2, ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes - w0; got != 1 {
		t.Errorf("write-backs = %d, want 1", got)
	}
	st := m.Stats()
	if st.WriteBacks != 1 {
		t.Errorf("Stats.WriteBacks = %d, want 1", st.WriteBacks)
	}
	if st.DiskIO() != st.DiskReads()+1 {
		t.Errorf("DiskIO = %d, want DiskReads+1 = %d", st.DiskIO(), st.DiskReads()+1)
	}
}

func TestFlush(t *testing.T) {
	s := newStore(t, 2)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(2, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	w0 := s.Stats().Writes
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes - w0; got != 1 {
		t.Errorf("flush writes = %d, want 1", got)
	}
	// Flushing again writes nothing (dirty bit cleared).
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes - w0; got != 1 {
		t.Errorf("second flush wrote %d extra", got-1)
	}
}

func TestClear(t *testing.T) {
	s := newStore(t, 4)
	pol := newTestPolicy()
	m, err := NewEngine(s, pol, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	for id := page.ID(1); id <= 4; id++ {
		if _, err := m.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Errorf("Len after clear = %d", m.Len())
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Errorf("stats after clear = %+v", st)
	}
	if pol.order.Len() != 0 {
		t.Error("policy not reset")
	}
	// The buffer is usable after Clear.
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Misses != 1 {
		t.Error("post-clear request should be a cold miss")
	}
}

func TestGetUnknownPage(t *testing.T) {
	s := newStore(t, 1)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(42, AccessContext{}); !errors.Is(err, storage.ErrPageNotFound) {
		t.Errorf("err = %v, want ErrPageNotFound", err)
	}
}

func TestHitRatio(t *testing.T) {
	var st Stats
	if st.HitRatio() != 0 {
		t.Error("empty stats hit ratio should be 0")
	}
	st = Stats{Requests: 10, Hits: 4, Misses: 6}
	if got := st.HitRatio(); got != 0.4 {
		t.Errorf("HitRatio = %g, want 0.4", got)
	}
	// All hits and all misses are exact, not approximate.
	if got := (Stats{Requests: 7, Hits: 7}).HitRatio(); got != 1 {
		t.Errorf("all-hits ratio = %g, want 1", got)
	}
	if got := (Stats{Requests: 7, Misses: 7}).HitRatio(); got != 0 {
		t.Errorf("all-misses ratio = %g, want 0", got)
	}
}

func TestStatsDiskCounters(t *testing.T) {
	var st Stats
	if st.DiskReads() != 0 || st.DiskIO() != 0 {
		t.Errorf("zero stats: DiskReads=%d DiskIO=%d", st.DiskReads(), st.DiskIO())
	}
	// Read-only workload: IO equals reads equals misses.
	st = Stats{Requests: 10, Hits: 4, Misses: 6}
	if st.DiskReads() != 6 || st.DiskIO() != 6 {
		t.Errorf("read-only: DiskReads=%d DiskIO=%d, want 6/6", st.DiskReads(), st.DiskIO())
	}
	// Update workload: write-backs count toward IO but not reads.
	st = Stats{Requests: 10, Hits: 4, Misses: 6, WriteBacks: 3}
	if st.DiskReads() != 6 {
		t.Errorf("DiskReads = %d, want 6 (write-backs are not reads)", st.DiskReads())
	}
	if st.DiskIO() != 9 {
		t.Errorf("DiskIO = %d, want 9 (misses + write-backs)", st.DiskIO())
	}
	// Pure write-back (e.g. only Flush activity): IO without reads.
	st = Stats{WriteBacks: 2}
	if st.DiskReads() != 0 || st.DiskIO() != 2 {
		t.Errorf("flush-only: DiskReads=%d DiskIO=%d, want 0/2", st.DiskReads(), st.DiskIO())
	}
}

func TestCapacityOneBuffer(t *testing.T) {
	s := newStore(t, 3)
	m, err := NewEngine(s, newTestPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	for round := 0; round < 3; round++ {
		for id := page.ID(1); id <= 3; id++ {
			if _, err := m.Get(id, ctx); err != nil {
				t.Fatal(err)
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d, want 1", m.Len())
			}
		}
	}
	// Cycling through 3 pages with 1 frame: every access misses.
	if st := m.Stats(); st.Hits != 0 || st.Misses != 9 {
		t.Errorf("stats = %+v", st)
	}
}
