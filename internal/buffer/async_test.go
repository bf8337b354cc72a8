package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// gatedStore blocks every Read (of page only, when set) until the gate
// is closed, so a test can pile an arbitrary number of concurrent misses
// onto one in-flight read before letting it complete. fail, when set,
// makes gated reads error after the gate opens.
type gatedStore struct {
	storage.Store
	gate  chan struct{}
	only  page.ID
	fail  atomic.Bool
	reads atomic.Int32
}

var errGatedRead = errors.New("gated read failed")

func (s *gatedStore) Read(id page.ID) (*page.Page, error) {
	if s.only != page.InvalidID && id != s.only {
		return s.Store.Read(id)
	}
	<-s.gate
	s.reads.Add(1)
	if s.fail.Load() {
		return nil, errGatedRead
	}
	return s.Store.Read(id)
}

// blockWriteStore blocks every Write until the gate is closed, keeping
// write-back queue entries pending for as long as a test needs them.
type blockWriteStore struct {
	storage.Store
	gate chan struct{}
}

func (s *blockWriteStore) Write(p *page.Page) error {
	<-s.gate
	return s.Store.Write(p)
}

// countingStore counts Reads per page on top of a base store.
type countingStore struct {
	storage.Store
	reads atomic.Int64
}

func (s *countingStore) Read(id page.ID) (*page.Page, error) {
	p, err := s.Store.Read(id)
	if err == nil {
		s.reads.Add(1)
	}
	return p, err
}

// testPage builds a data page with a distinctive ObjID, for asserting
// which version of a page a read returned.
func testPage(id page.ID, obj uint64) *page.Page {
	p := page.New(id, page.TypeData, 0, 1)
	p.Append(page.Entry{MBR: geom.NewRect(0, 0, 1, 1), ObjID: obj})
	p.Recompute()
	return p
}

// waitForRequests polls until the pool has accounted n requests — i.e.
// the leader is mid-read and every other goroutine is registered as a
// coalesced waiter — or the deadline passes.
func waitForRequests(t *testing.T, sp *AsyncPool, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sp.Stats().Requests < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d accounted requests (have %d)", n, sp.Stats().Requests)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncSingleflightOneRead is the coalescing contract: N goroutines
// missing the same page perform exactly one physical read, all share
// its result, and the accounting identity DiskReads = Misses −
// Coalesced holds exactly.
func TestAsyncSingleflightOneRead(t *testing.T) {
	gs := &gatedStore{Store: newStore(t, 8), gate: make(chan struct{})}
	r, err := NewRouter(gs, testFactory, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 0, 0)
	defer sp.Close()

	const n = 16
	var wg sync.WaitGroup
	pages := make([]*page.Page, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pages[i], errs[i] = sp.Get(1, AccessContext{QueryID: uint64(i)})
		}(i)
	}
	waitForRequests(t, sp, n)
	close(gs.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if pages[i] == nil || pages[i].ID != 1 {
			t.Fatalf("request %d returned wrong page: %+v", i, pages[i])
		}
	}
	if got := gs.reads.Load(); got != 1 {
		t.Errorf("store reads = %d, want exactly 1", got)
	}
	st := sp.Stats()
	if st.Requests != n || st.Misses != n || st.Hits != 0 {
		t.Errorf("stats = %+v, want %d misses", st, n)
	}
	if st.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	if st.DiskReads() != 1 {
		t.Errorf("DiskReads = %d, want 1", st.DiskReads())
	}
	if sp.Len() != 1 {
		t.Errorf("resident pages = %d, want 1", sp.Len())
	}
}

// TestAsyncSingleflightSharedError checks the error path: a failed read
// is delivered to the leader and every coalesced waiter, leaves no
// residue (nothing resident, no stuck in-flight entry), and the next
// miss for the page starts a fresh read that can succeed.
func TestAsyncSingleflightSharedError(t *testing.T) {
	gs := &gatedStore{Store: newStore(t, 8), gate: make(chan struct{})}
	gs.fail.Store(true)
	r, err := NewRouter(gs, testFactory, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 0, 0)
	defer sp.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sp.Get(3, AccessContext{})
		}(i)
	}
	waitForRequests(t, sp, n)
	close(gs.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if !errors.Is(errs[i], errGatedRead) {
			t.Fatalf("request %d: err = %v, want %v", i, errs[i], errGatedRead)
		}
	}
	if sp.Len() != 0 {
		t.Errorf("resident pages = %d after failed read, want 0", sp.Len())
	}

	// No residue: with the failure cleared, the same page loads fine.
	gs.fail.Store(false)
	p, err := sp.Get(3, AccessContext{})
	if err != nil || p == nil || p.ID != 3 {
		t.Fatalf("get after failure: page %+v, err %v", p, err)
	}
}

// TestAsyncFixCoalesce pins through the coalesced path: N concurrent
// Fixes of one absent page share one read, and every caller holds a
// real pin afterwards (each Unfix releases exactly one).
func TestAsyncFixCoalesce(t *testing.T) {
	gs := &gatedStore{Store: newStore(t, 8), gate: make(chan struct{})}
	r, err := NewRouter(gs, testFactory, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 0, 0)
	defer sp.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sp.Fix(5, AccessContext{})
		}(i)
	}
	waitForRequests(t, sp, n)
	close(gs.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fix %d: %v", i, errs[i])
		}
	}
	if got := gs.reads.Load(); got != 1 {
		t.Errorf("store reads = %d, want exactly 1", got)
	}
	// Exactly n pins: n Unfixes succeed, one more fails.
	for i := 0; i < n; i++ {
		if err := sp.Unfix(5); err != nil {
			t.Fatalf("unfix %d: %v", i, err)
		}
	}
	if err := sp.Unfix(5); err == nil {
		t.Error("unfix beyond pin count should fail")
	}
}

// TestAsyncSingleShardSeedEquivalence pins the tentpole's compatibility
// promise: a single-threaded read-only replay through a 1-shard async
// pool is stat-for-stat — and event-for-event — identical to the seed
// Engine over the same reference string.
func TestAsyncSingleShardSeedEquivalence(t *testing.T) {
	const numPages, capacity, requests = 64, 16, 4096

	seedStore := newStore(t, numPages)
	seed, err := NewEngine(seedStore, newTestPolicy(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	var seedLog bytes.Buffer
	seedSink := obs.NewJSONLSink(&seedLog)
	seed.SetSink(seedSink)

	asyncStore := newStore(t, numPages)
	r, err := NewRouter(asyncStore, testFactory, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 0, 0)
	defer sp.Close()
	var asyncLog bytes.Buffer
	asyncSink := obs.NewJSONLSink(&asyncLog)
	sp.SetSink(asyncSink)

	// A deterministic LCG reference string with rereference locality.
	replay := func(get func(page.ID, AccessContext) (*page.Page, error)) {
		state := uint64(1)
		for i := 0; i < requests; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			id := page.ID(state>>33%numPages + 1)
			if _, err := get(id, AccessContext{QueryID: uint64(i) / 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay(seed.Get)
	replay(sp.Get)

	if ss, as := seed.Stats(), sp.Stats(); ss != as {
		t.Errorf("stats diverge:\n seed  %+v\n async %+v", ss, as)
	}
	if sr, ar := seedStore.Stats().Reads, asyncStore.Stats().Reads; sr != ar {
		t.Errorf("physical reads diverge: seed %d, async %d", sr, ar)
	}
	seedIDs, asyncIDs := residentIDs(seed), residentIDs(sp)
	if len(seedIDs) != len(asyncIDs) {
		t.Fatalf("resident sets diverge: %d vs %d pages", len(seedIDs), len(asyncIDs))
	}
	for i := range seedIDs {
		if seedIDs[i] != asyncIDs[i] {
			t.Fatalf("resident sets diverge at %d: %d vs %d", i, seedIDs[i], asyncIDs[i])
		}
	}
	if err := seedSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := asyncSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seedLog.Bytes(), asyncLog.Bytes()) {
		t.Error("event streams diverge between seed Engine and 1-shard async pool")
	}
}

// TestAsyncConcurrentGetStress hammers a 4-shard async pool with
// concurrent readers under -race and checks the global accounting
// identity for Get-only workloads: physical reads == Misses −
// Coalesced.
func TestAsyncConcurrentGetStress(t *testing.T) {
	const numPages, capacity, workers, perWorker = 256, 64, 8, 1500
	cs := &countingStore{Store: newStore(t, numPages)}
	r, err := NewRouter(cs, testFactory, capacity, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 0, 0)
	defer sp.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w)*2862933555777941757 + 3037000493
			for i := 0; i < perWorker; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				id := page.ID(state>>33%numPages + 1)
				if _, err := sp.Get(id, AccessContext{QueryID: uint64(i)}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := sp.Stats()
	if st.Requests != workers*perWorker {
		t.Errorf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	if got, want := uint64(cs.reads.Load()), st.DiskReads(); got != want {
		t.Errorf("physical reads = %d, want Misses-Coalesced = %d", got, want)
	}
}

// TestAsyncWritebackReadYourWrites evicts a dirty page into the
// write-back queue (with the physical write blocked), then misses on
// it: the pool must serve the queued version — never the stale store —
// count the miss as coalesced, and keep the page dirty so the canceled
// write eventually happens.
func TestAsyncWritebackReadYourWrites(t *testing.T) {
	bw := &blockWriteStore{Store: newStore(t, 32), gate: make(chan struct{})}
	r, err := NewRouter(bw, testFactory, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 1, 4)

	ctx := AccessContext{}
	if _, err := sp.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.Put(testPage(9, 999), ctx); err != nil {
		t.Fatal(err)
	}
	// FIFO: Get(2) evicts clean page 1; Get(3) evicts dirty page 9 into
	// the queue, where the gated store keeps it pending.
	if _, err := sp.Get(2, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Get(3, ctx); err != nil {
		t.Fatal(err)
	}

	p, err := sp.Get(9, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 1 || p.Entries[0].ObjID != 999 {
		t.Fatalf("got stale page 9 content: %+v", p)
	}
	st := sp.Stats()
	if st.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1 (the queue-served miss)", st.Coalesced)
	}
	if m := sp.Writeback(); m.Canceled != 1 {
		t.Errorf("canceled write-backs = %d, want 1", m.Canceled)
	}

	close(bw.gate)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	// The re-admitted page stayed dirty, so Close's flush made it
	// durable despite the canceled queued write.
	got, err := bw.Store.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].ObjID != 999 {
		t.Fatalf("store holds stale page 9 after Close: %+v", got)
	}
}

// TestAsyncFlushDrainsWriteback dirties a batch of pages, evicts them
// into the write-back queue, and checks that Flush is a durability
// barrier: afterwards the store holds every new version and the queue
// is empty.
func TestAsyncFlushDrainsWriteback(t *testing.T) {
	st := newStore(t, 32)
	r, err := NewRouter(st, testFactory, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 2, 16)
	defer sp.Close()

	ctx := AccessContext{}
	for id := page.ID(1); id <= 8; id++ {
		if err := sp.Put(testPage(id, 1000+uint64(id)), ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Evict the dirty pages by pulling in clean ones.
	for id := page.ID(20); id <= 27; id++ {
		if _, err := sp.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}

	for id := page.ID(1); id <= 8; id++ {
		p, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Entries) != 1 || p.Entries[0].ObjID != 1000+uint64(id) {
			t.Fatalf("page %d not durable after Flush: %+v", id, p)
		}
	}
	m := sp.Writeback()
	if m.Pending != 0 || m.Depth != 0 {
		t.Errorf("queue not drained after Flush: %+v", m)
	}
	if m.Queued == 0 || m.Written == 0 {
		t.Errorf("expected background write-backs, got %+v", m)
	}
}

// TestWritebackCoalesceAndClose unit-tests the queue itself:
// re-enqueueing a pending page replaces it in place (one physical
// write, newest version wins), close drains, and a closed queue refuses
// work so the pool degrades to synchronous writes.
func TestWritebackCoalesceAndClose(t *testing.T) {
	bw := &blockWriteStore{Store: newStore(t, 4), gate: make(chan struct{})}
	w := newWriteback(bw, 1, 4)

	if !w.enqueue(testPage(1, 100), 0) {
		t.Fatal("first enqueue refused")
	}
	if !w.enqueue(testPage(1, 200), 0) {
		t.Fatal("coalescing enqueue refused")
	}
	m := w.metrics()
	if m.Queued != 1 || m.Coalesced != 1 {
		t.Fatalf("metrics after coalesce: %+v", m)
	}

	close(bw.gate)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	p, err := bw.Store.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries[0].ObjID != 200 {
		t.Fatalf("store holds stale version after coalesced write: %+v", p)
	}
	if w.enqueue(testPage(1, 300), 0) {
		t.Error("closed queue accepted work")
	}
}

// failWriteStore fails every Write.
type failWriteStore struct {
	storage.Store
}

var errFailedWrite = errors.New("write failed")

func (s *failWriteStore) Write(*page.Page) error { return errFailedWrite }

// TestWritebackStickyError checks that a failed background write
// surfaces at the next drain (Flush barrier), and that Clear resets the
// sticky error along with the rest of the accounting.
func TestWritebackStickyError(t *testing.T) {
	fs := &failWriteStore{Store: newStore(t, 8)}
	r, err := NewRouter(fs, testFactory, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 1, 4)
	defer sp.Close()

	ctx := AccessContext{}
	if err := sp.Put(testPage(1, 7), ctx); err != nil {
		t.Fatal(err)
	}
	// Evict the dirty page; the background write fails.
	if _, err := sp.Get(2, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Get(3, ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(); !errors.Is(err, errFailedWrite) {
		t.Fatalf("Flush err = %v, want %v", err, errFailedWrite)
	}
	if m := sp.Writeback(); m.Errors == 0 {
		t.Errorf("error counter not bumped: %+v", m)
	}
	// Clear resets the sticky error, so the next Flush succeeds.
	if err := sp.Clear(); !errors.Is(err, errFailedWrite) {
		t.Fatalf("Clear err = %v, want the sticky %v", err, errFailedWrite)
	}
	if err := sp.Clear(); err != nil {
		t.Fatalf("Clear after reset: %v", err)
	}
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush after reset: %v", err)
	}
}

// TestWritebackBackpressure fills a tiny queue with blocked writes and
// checks the fallback contract: refused enqueues are written
// synchronously by the evicting request, so no dirty page is ever
// dropped.
func TestWritebackBackpressure(t *testing.T) {
	base := newStore(t, 64)
	bw := &blockWriteStore{Store: base, gate: make(chan struct{})}
	w := newWriteback(bw, 1, 1)

	accepted := 0
	for id := page.ID(1); id <= 3; id++ {
		if w.enqueue(testPage(id, uint64(id)), 0) {
			accepted++
		}
	}
	// Capacity 1 plus at most one page already claimed by the (blocked)
	// worker: at least one of the three enqueues must have been refused.
	if accepted == 3 {
		t.Fatal("tiny queue accepted every enqueue; backpressure never engaged")
	}
	if m := w.metrics(); m.Fallbacks != uint64(3-accepted) {
		t.Errorf("fallbacks = %d, want %d", m.Fallbacks, 3-accepted)
	}
	close(bw.gate)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// soleFramePolicy is an allocation-free policy for capacity-1 pools:
// the victim is the one resident frame.
type soleFramePolicy struct{ f *Frame }

func (p *soleFramePolicy) Name() string                                { return "sole-frame" }
func (p *soleFramePolicy) OnAdmit(f *Frame, _ uint64, _ AccessContext) { p.f = f }
func (p *soleFramePolicy) OnHit(*Frame, uint64, AccessContext)         {}
func (p *soleFramePolicy) Victim(AccessContext) Choice                 { return Choice{Frame: p.f} }
func (p *soleFramePolicy) OnEvict(*Frame)                              { p.f = nil }
func (p *soleFramePolicy) Reset()                                      { p.f = nil }

// TestAsyncLeaderMissAllocs pins the cost of the common async miss — a
// leader nobody waits for: nothing. The done channel is the first
// waiter's to create, and a flight-table entry no waiter saw is one of
// the shard's spares for the next leaders.
func TestAsyncLeaderMissAllocs(t *testing.T) {
	comp, err := ParseComposition("async,shards=1")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := comp.Build(newStore(t, 2), func(int) Policy { return &soleFramePolicy{} }, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.(*AsyncPool).Close()
	ctx := AccessContext{QueryID: 1}
	id := page.ID(1)
	allocs := testing.AllocsPerRun(1000, func() {
		id = 3 - id // 2, 1, 2, …: one frame, so every Get misses
		if _, err := pool.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if st := pool.Stats(); st.Hits != 0 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want leader misses only", st)
	}
	if allocs != 0 {
		t.Errorf("leader-only async miss allocates %.1f objects, want 0", allocs)
	}
}

// orderStore checks, per page, that Writes never overlap and never go
// back to an older version (the ObjID of the page's entry). When gate is
// set, the first Write of page gated blocks inside the store until the
// gate is closed, and entered is closed once it is in there.
type orderStore struct {
	storage.Store
	gated   page.ID
	entered chan struct{}
	gate    chan struct{}

	mu     sync.Mutex
	active map[page.ID]bool
	last   map[page.ID]uint64
	writes map[page.ID]int
	bad    []string
}

func newOrderStore(base storage.Store) *orderStore {
	return &orderStore{Store: base, active: map[page.ID]bool{}, last: map[page.ID]uint64{}, writes: map[page.ID]int{}}
}

func (s *orderStore) Write(p *page.Page) error {
	v := p.Entries[0].ObjID
	s.mu.Lock()
	if s.active[p.ID] {
		s.bad = append(s.bad, fmt.Sprintf("page %d: version %d written during another write", p.ID, v))
	}
	if v < s.last[p.ID] {
		s.bad = append(s.bad, fmt.Sprintf("page %d: version %d written after %d", p.ID, v, s.last[p.ID]))
	}
	s.active[p.ID], s.last[p.ID] = true, v
	s.writes[p.ID]++
	first := s.writes[p.ID] == 1
	s.mu.Unlock()
	if first && s.gate != nil && p.ID == s.gated {
		close(s.entered)
		<-s.gate
	}
	runtime.Gosched() // widen the window a second writer would need
	err := s.Store.Write(p)
	s.mu.Lock()
	s.active[p.ID] = false
	s.mu.Unlock()
	return err
}

// TestWritebackNeverReordersOnePage: a writer is stuck inside the store
// with version 1 of a page when the page is taken back, replaced by
// version 2 and evicted again. A second writer must not write version 2
// alongside (the older pwrite could land last): version 2 has to wait
// for the first write to return, and the store must end with it.
func TestWritebackNeverReordersOnePage(t *testing.T) {
	st := newOrderStore(newStore(t, 16))
	st.gated, st.entered, st.gate = 9, make(chan struct{}), make(chan struct{})
	r, err := NewRouter(st, testFactory, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 2, 4)
	ctx := AccessContext{}
	get := func(ids ...page.ID) {
		t.Helper()
		for _, id := range ids {
			if _, err := sp.Get(id, ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sp.Put(testPage(9, 1), ctx); err != nil {
		t.Fatal(err)
	}
	get(1, 2) // FIFO: the second admission evicts dirty page 9 into the queue
	<-st.entered

	if err := sp.Put(testPage(9, 2), ctx); err != nil { // takes version 1 back
		t.Fatal(err)
	}
	get(3, 4) // evicts version 2

	// Let a second writer claim whatever slot the eviction queued.
	deadline := time.Now().Add(5 * time.Second)
	for sp.Writeback().Depth > 0 {
		if time.Now().After(deadline) {
			t.Fatal("write-back queue never emptied")
		}
		runtime.Gosched()
	}
	close(st.gate)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	for _, msg := range st.bad {
		t.Error(msg)
	}
	got, err := st.Store.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].ObjID != 2 {
		t.Errorf("store ends with version %d of page 9, want 2", got.Entries[0].ObjID)
	}
	if n := st.writes[9]; n != 2 {
		t.Errorf("page 9 written %d times, want 2 (version 1, then version 2)", n)
	}
}

// TestWritebackOrderStress drives the queue the way an engine does —
// enqueue ever newer versions of a few hot pages, take some back — with
// four writers, and checks at the store that each page's writes are
// serial and in version order, and that after close the store holds the
// newest version that was enqueued and not taken back.
func TestWritebackOrderStress(t *testing.T) {
	const pages = 4
	st := newOrderStore(newStore(t, pages))
	w := newWriteback(st, 4, 2)
	rng := rand.New(rand.NewSource(1))
	want := map[page.ID]uint64{} // newest version owed to the store
	for v := uint64(1); v <= 5000; v++ {
		id := page.ID(rng.Intn(pages) + 1)
		if rng.Intn(4) == 0 {
			if _, ok := w.take(id); ok {
				delete(want, id)
			}
			continue
		}
		p := testPage(id, v)
		if !w.enqueue(p, 0) {
			// Queue full: the engine writes synchronously — safe, because
			// a refusal means no version of the page is pending or in flight.
			if err := st.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		want[id] = v
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	for _, msg := range st.bad {
		t.Error(msg)
	}
	for id, v := range want {
		got, err := st.Store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Entries[0].ObjID != v {
			t.Errorf("page %d: store ends with version %d, want %d", id, got.Entries[0].ObjID, v)
		}
	}
}

// holdStore blocks the first Write of each page in hold inside the store
// until the page's release channel is closed; its entered channel is
// closed once the write is in there.
type holdStore struct {
	storage.Store
	mu   sync.Mutex
	hold map[page.ID]heldWrite
}

type heldWrite struct{ entered, release chan struct{} }

func (s *holdStore) Write(p *page.Page) error {
	s.mu.Lock()
	h, ok := s.hold[p.ID]
	delete(s.hold, p.ID)
	s.mu.Unlock()
	if ok {
		close(h.entered)
		<-h.release
	}
	return s.Store.Write(p)
}

// TestAsyncFlushJoinsInflightWriteback: a Flush is already past its
// drain (held at shard 0) when, on shard 1, version 2 of page x is
// evicted and its write-back sticks inside the store, and version 3 is
// put. When the Flush reaches x it must not write version 3 alongside
// version 2 (the older write could land last): version 3 joins x's
// writer, and Flush returns only after it is in the store.
func TestAsyncFlushJoinsInflightWriteback(t *testing.T) {
	hs := &holdStore{Store: newStore(t, 32), hold: map[page.ID]heldWrite{}}
	st := newOrderStore(hs)
	r, err := NewRouter(st, testFactory, 4, 2) // two frames per shard
	if err != nil {
		t.Fatal(err)
	}
	sp := Async(r, 1, 4)

	// y lives on shard 0, which Flush visits first; x and two fillers on
	// shard 1.
	var y, x page.ID
	var fill []page.ID
	for id := page.ID(1); id <= 32; id++ {
		switch {
		case r.shardIndex(id) == 0 && y == 0:
			y = id
		case r.shardIndex(id) == 1 && x == 0:
			x = id
		case r.shardIndex(id) == 1 && len(fill) < 2:
			fill = append(fill, id)
		}
	}
	holdY := heldWrite{make(chan struct{}), make(chan struct{})}
	holdX := heldWrite{make(chan struct{}), make(chan struct{})}
	hs.hold[y], hs.hold[x] = holdY, holdX

	ctx := AccessContext{}
	if err := sp.Put(testPage(y, 1), ctx); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- sp.Flush() }()
	<-holdY.entered // Flush has drained and holds shard 0

	if err := sp.Put(testPage(x, 2), ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range fill { // FIFO: the second admission evicts x
		if _, err := sp.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	<-holdX.entered // version 2 is mid-write
	if err := sp.Put(testPage(x, 3), ctx); err != nil {
		t.Fatal(err)
	}

	close(holdY.release)
	// Wait until the Flush has dealt with x: handed version 3 to the
	// writer, or (the defect) written it itself.
	deadline := time.Now().Add(5 * time.Second)
	for sp.Writeback().Coalesced == 0 {
		st.mu.Lock()
		n := st.writes[x]
		st.mu.Unlock()
		if n > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Flush never reached page x")
		}
		runtime.Gosched()
	}
	close(holdX.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}

	for _, msg := range st.bad {
		t.Error(msg)
	}
	got, err := hs.Store.Read(x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].ObjID != 3 {
		t.Errorf("store holds version %d of page %d after Flush, want 3", got.Entries[0].ObjID, x)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}
