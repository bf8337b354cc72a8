package buffer

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// TestEngineTracedRequest checks that a sampled Get produces a root span
// with the request payload and, on a miss, a store.Read child span
// around the engine's store call.
func TestEngineTracedRequest(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 16)
	m.SetTracer(tr)

	ctx := AccessContext{QueryID: 9}
	if _, err := m.Get(1, ctx); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := m.Get(1, ctx); err != nil { // hit
		t.Fatal(err)
	}

	traces := tr.Traces(0)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	miss, hit := traces[0], traces[1]
	if len(miss) != 2 {
		t.Fatalf("miss trace has %d spans, want root+store.Read: %+v", len(miss), miss)
	}
	root := miss[0]
	if root.Kind != tracing.KindGet || root.Hit || root.Page != 1 || root.QueryID != 9 {
		t.Fatalf("bad miss root: %+v", root)
	}
	rd := miss[1]
	if rd.Kind != tracing.KindStoreRead || rd.Parent != 0 || rd.Page != 1 || rd.Bytes <= 0 {
		t.Fatalf("bad store.Read child: %+v", rd)
	}
	if len(hit) != 1 || !hit[0].Hit {
		t.Fatalf("bad hit trace: %+v", hit)
	}
}

// TestEngineTracedWriteBack checks that dirty evictions and Flush record
// store.Write child spans, and that Flush is traced unconditionally.
func TestEngineTracedWriteBack(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 16)
	m.SetTracer(tr)

	ctx := AccessContext{}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(2, ctx); err != nil { // evicts dirty page 1
		t.Fatal(err)
	}
	if err := m.MarkDirty(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	traces := tr.Traces(0)
	if len(traces) != 5 {
		t.Fatalf("got %d traces, want 5 (2 gets + 2 markdirties + flush)", len(traces))
	}
	md := traces[1]
	if md[0].Kind != tracing.KindMarkDirty || !md[0].Hit || md[0].Page != 1 {
		t.Fatalf("bad markdirty root: %+v", md[0])
	}
	evict := traces[2]
	var wrote bool
	for _, sp := range evict {
		if sp.Kind == tracing.KindStoreWrite && sp.Page == 1 {
			wrote = true
		}
	}
	if !wrote {
		t.Fatalf("eviction trace lacks write-back span: %+v", evict)
	}
	flush := traces[4]
	if flush[0].Kind != tracing.KindFlush {
		t.Fatalf("bad flush root: %+v", flush[0])
	}
	if len(flush) != 2 || flush[1].Kind != tracing.KindStoreWrite || flush[1].Page != 2 {
		t.Fatalf("bad flush children: %+v", flush)
	}
}

// TestEngineDetachTracer checks that SetTracer(nil) stops recording.
func TestEngineDetachTracer(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 16)
	m.SetTracer(tr)
	m.SetTracer(nil)
	if _, err := m.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Traces(0)); got != 0 {
		t.Fatalf("detached tracer recorded %d traces", got)
	}
	if m.tracer != nil {
		t.Fatal("tracer still attached after detach")
	}
}

// TestTracingDisabledHitAllocFree pins the zero-cost contract: with no
// tracer attached the hit path allocates nothing, and with a tracer
// attached an unsampled hit allocates nothing either.
func TestTracingDisabledHitAllocFree(t *testing.T) {
	s := newStore(t, 2)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Get(1, ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("untraced hit allocates %.1f/op, want 0", allocs)
	}

	// Huge sampling interval: every request goes down the unsampled path.
	m.SetTracer(tracing.NewTracer(1<<40, 1, 8))
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Get(1, ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("unsampled hit allocates %.1f/op, want 0", allocs)
	}
}

// TestRouterTracing checks that every shard stamps its own index on
// its spans and records into its own ring, and that lock waits land in
// root spans.
func TestRouterTracing(t *testing.T) {
	const shards = 4
	s := newStore(t, 64)
	pool, err := newShared(s, func(capacity int) Policy { return newTestPolicy() }, 32, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, pool.Shards(), 64)
	pool.SetTracer(tr)
	c := tracing.NewContention(pool.Shards())
	pool.EnableContention(c)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := page.ID(1 + (g*50+i)%64)
				if _, err := pool.Get(id, AccessContext{QueryID: uint64(g)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	seen := map[int32]bool{}
	for _, trc := range tr.Traces(0) {
		shard := trc[0].Shard
		seen[shard] = true
		for _, sp := range trc {
			if sp.Shard != shard {
				t.Fatalf("span shard %d != root shard %d", sp.Shard, shard)
			}
		}
		if shard < 0 || int(shard) >= shards {
			t.Fatalf("shard index %d out of range", shard)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("only %d shards recorded traces; want several", len(seen))
	}
	var acq uint64
	for i := 0; i < c.Shards(); i++ {
		acq += c.Acquisitions(i)
	}
	// A miss always acquires its shard's mutex; a hit does unless it was
	// served latch-free, which the profiler does not count.
	if st := pool.Stats(); st.Requests != 200 || acq < st.Misses || acq > 200 {
		t.Fatalf("profiler counted %d acquisitions for %d requests, %d of them misses", acq, st.Requests, st.Misses)
	}
}

// TestLockedEngineTracing checks the one-shard shared pool: spans carry
// shard 0 and the contention profiler counts every request acquisition.
func TestLockedEngineTracing(t *testing.T) {
	s := newStore(t, 8)
	m, err := NewEngine(s, newTestPolicy(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sm := lockEngine(m)
	tr := tracing.NewTracer(1, 1, 32)
	sm.SetTracer(tr)
	c := tracing.NewContention(1)
	sm.EnableContention(c)

	for i := 0; i < 10; i++ {
		if _, err := sm.Get(page.ID(1+i%8), AccessContext{}); err != nil {
			t.Fatal(err)
		}
	}
	traces := tr.Traces(0)
	if len(traces) != 10 {
		t.Fatalf("got %d traces, want 10", len(traces))
	}
	for _, trc := range traces {
		if trc[0].Shard != 0 {
			t.Fatalf("locked pool span on shard %d", trc[0].Shard)
		}
	}
	if c.Acquisitions(0) != 10 {
		t.Fatalf("profiler counted %d acquisitions, want 10", c.Acquisitions(0))
	}
	sm.SetTracer(nil)
	sm.EnableContention(nil)
	if _, err := sm.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if c.Acquisitions(0) != 10 {
		t.Fatal("profiler still counting after detach")
	}
}

// TestAsyncTracedMissIsolation drives tracing through the non-blocking
// miss: while a leader's read of page x is held outside the latch, a
// second request misses page y on the same shard and evicts a dirty
// page, and a third coalesces onto x. Every request must record exactly
// its own work — the leader's trace nothing of the request that used the
// engine in between — and the background write of the dirty victim must
// be filed under the shard that evicted it.
func TestAsyncTracedMissIsolation(t *testing.T) {
	const shards = 2
	gs := &gatedStore{Store: newStore(t, 64), gate: make(chan struct{})}
	sp, err := newAsync(gs, testFactoryFIFO, 2*shards, shards, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	tr := tracing.NewTracer(1, shards, 64)
	sp.SetTracer(tr)

	// Four pages of the last shard: a write-back span filed under shard 0
	// regardless of its origin would pass unnoticed on the first.
	const shard = shards - 1
	var ids []page.ID
	for id := page.ID(1); len(ids) < 4; id++ {
		if sp.shardFor(id) == sp.shards[shard] {
			ids = append(ids, id)
		}
	}
	dirty, filler, x, y := ids[0], ids[1], ids[2], ids[3]
	gs.only = x

	// Fill the shard's two frames: the dirty page is the FIFO victim of
	// the first eviction, the filler of the second.
	if err := sp.Put(testPage(dirty, 7), AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Get(filler, AccessContext{}); err != nil {
		t.Fatal(err)
	}

	const leaderQ, waiterQ, otherQ = 1, 2, 3
	var wg sync.WaitGroup
	get := func(id page.ID, query uint64) {
		defer wg.Done()
		if _, err := sp.Get(id, AccessContext{QueryID: query}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go get(x, leaderQ)
	waitForRequests(t, sp, 2) // filler, leader: x's read is registered and held outside the latch
	go get(x, waiterQ)
	waitForRequests(t, sp, 3) // waiter, coalesced onto it

	// Same shard, while both wait: miss y, evict the dirty page.
	if _, err := sp.Get(y, AccessContext{QueryID: otherQ}); err != nil {
		t.Fatal(err)
	}
	if err := sp.wb.drain(); err != nil {
		t.Fatal(err)
	}
	close(gs.gate)
	wg.Wait()

	// check finds the one trace whose root has want[0]'s kind, page and
	// query and compares its children with want[1:], kind by kind and
	// page by page; all must hang off the root, on this shard.
	traces := tr.Traces(0)
	check := func(name string, want ...tracing.Span) []tracing.Span {
		t.Helper()
		var found []tracing.Span
		for _, trc := range traces {
			if root := trc[0]; root.Kind == want[0].Kind && root.Page == want[0].Page && root.QueryID == want[0].QueryID {
				if found != nil {
					t.Fatalf("%s: more than one trace", name)
				}
				found = trc
			}
		}
		if len(found) != len(want) {
			t.Fatalf("%s: trace %+v, want %d spans", name, found, len(want))
		}
		for i, s := range found {
			if s.Shard != shard {
				t.Errorf("%s: span %d (%v) filed under shard %d, want %d", name, i, s.Kind, s.Shard, shard)
			}
			if i > 0 && (s.Kind != want[i].Kind || s.Page != want[i].Page || s.Parent != 0) {
				t.Errorf("%s: span %d = %v page %d parent %d, want %v page %d parent 0",
					name, i, s.Kind, s.Page, s.Parent, want[i].Kind, want[i].Page)
			}
		}
		return found
	}
	check("leader", tracing.Span{Kind: tracing.KindGet, Page: x, QueryID: leaderQ},
		tracing.Span{Kind: tracing.KindStoreRead, Page: x}, tracing.Span{Kind: tracing.KindVictim, Page: filler})
	check("other request", tracing.Span{Kind: tracing.KindGet, Page: y, QueryID: otherQ},
		tracing.Span{Kind: tracing.KindStoreRead, Page: y}, tracing.Span{Kind: tracing.KindVictim, Page: dirty})
	waiter := check("waiter", tracing.Span{Kind: tracing.KindGet, Page: x, QueryID: waiterQ},
		tracing.Span{Kind: tracing.KindIOWait, Page: x})
	if !waiter[1].Hit {
		t.Errorf("waiter's io-wait span not marked coalesced: %+v", waiter[1])
	}
	check("write-back", tracing.Span{Kind: tracing.KindWriteback, Page: dirty},
		tracing.Span{Kind: tracing.KindStoreWrite, Page: dirty})
}

// TestTracedRequestIsItsOwnLatencySample: a request the tracer sampled is
// always timed, hit or not, and its latency sample is its root span's
// duration — one pair of clock readings serves both.
func TestTracedRequestIsItsOwnLatencySample(t *testing.T) {
	s := newStore(t, 4)
	e, err := NewEngine(s, newTestPolicy(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 16)
	e.SetTracer(tr)
	lat := func() *obs.LogHistogram {
		var lat, crit obs.LogHistogram
		e.AddHistograms(&lat, &crit)
		return &lat
	}
	pg, err := s.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	requests := []func() error{
		func() error { _, err := e.Get(1, AccessContext{}); return err }, // miss
		func() error { _, err := e.Get(1, AccessContext{}); return err }, // hit
		func() error { _, err := e.Get(2, AccessContext{}); return err }, // miss
		func() error { _, err := e.Get(1, AccessContext{}); return err }, // hit
		func() error { return e.Put(pg, AccessContext{}) },
	}
	var nanos []float64 // each request's latency sample
	for _, req := range requests {
		before := lat().Sum
		if err := req(); err != nil {
			t.Fatal(err)
		}
		nanos = append(nanos, lat().Sum-before)
	}
	traces := tr.Traces(0)
	if lat := lat(); len(traces) != 5 || lat.Count != 5 {
		t.Fatalf("%d traces, latency count %d, want 5 of each", len(traces), lat.Count)
	}
	for i, trc := range traces {
		if nanos[i] != float64(trc[0].Dur) {
			t.Errorf("request %d (%s): latency sample %g ns, root span %d ns", i, trc[0].Kind, nanos[i], trc[0].Dur)
		}
	}
}

// TestUncontendedLatchRecordsNoWait pins "no clock on an uncontended
// acquire" by its effect: a single goroutine never queues, so with a
// profiler and a tracer attached every acquisition is counted and the
// measured wait stays exactly zero.
func TestUncontendedLatchRecordsNoWait(t *testing.T) {
	for _, spec := range []string{"locked", "sharded,shards=2"} {
		t.Run(spec, func(t *testing.T) {
			comp, err := ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := comp.Build(newStore(t, 16), testFactoryFIFO, 8)
			if err != nil {
				t.Fatal(err)
			}
			c := tracing.NewContention(2)
			tr := tracing.NewTracer(64, 2, 32)
			ip := pool.(interface {
				SetTracer(*tracing.Tracer)
				EnableContention(*tracing.Contention)
			})
			ip.SetTracer(tr)
			ip.EnableContention(c)

			const requests = 10000
			var calls uint64
			for i := 0; i < requests; i++ {
				id := page.ID(1 + i%16)
				if _, err := pool.Fix(id, AccessContext{}); err != nil {
					t.Fatal(err)
				}
				calls++
				if i%10 == 0 {
					if err := pool.MarkDirty(id); err != nil {
						t.Fatal(err)
					}
					calls++
				}
				if err := pool.Unfix(id); err != nil {
					t.Fatal(err)
				}
				calls++
			}
			var acquired uint64
			for sh := 0; sh < c.Shards(); sh++ {
				acquired += c.Acquisitions(sh)
				if w := c.Waiters(sh); w != 0 {
					t.Errorf("shard %d: %d waiters left", sh, w)
				}
				if w := c.WaitNanos(sh); w != 0 {
					t.Errorf("shard %d: waited %d ns on a latch nobody contended, want 0", sh, w)
				}
			}
			if acquired != calls {
				t.Errorf("profiler counted %d acquisitions, want %d (one per call)", acquired, calls)
			}
			for _, trc := range tr.Traces(0) {
				if trc[0].LockWait != 0 {
					t.Errorf("%s span of page %d: LockWait = %d, want 0", trc[0].Kind, trc[0].Page, trc[0].LockWait)
				}
			}
		})
	}
}

// TestContendedLatchMeasuresWait is the other branch: a request that
// finds the latch held — by a miss whose store read a gate keeps inside
// the lock — is a waiter while it queues, and its measured wait lands in
// the profiler and in its own root span.
func TestContendedLatchMeasuresWait(t *testing.T) {
	gs := &gatedStore{Store: newStore(t, 4), gate: make(chan struct{}), only: 1}
	e, err := NewEngine(gs, newTestPolicy(), 4)
	if err != nil {
		t.Fatal(err)
	}
	le := lockEngine(e)
	c := tracing.NewContention(1)
	tr := tracing.NewTracer(1, 1, 8)
	le.SetTracer(tr)
	le.EnableContention(c)

	var wg sync.WaitGroup
	get := func(id page.ID) {
		defer wg.Done()
		if _, err := le.Get(id, AccessContext{}); err != nil {
			t.Error(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	wg.Add(2)
	go get(1) // takes the free latch, then sits in the gated read
	waitFor("the holder's acquisition", func() bool { return c.Acquisitions(0) == 1 })
	go get(2)
	waitFor("the second request to queue", func() bool { return c.Waiters(0) == 1 })
	close(gs.gate)
	wg.Wait()

	if c.Acquisitions(0) != 2 || c.Waiters(0) != 0 {
		t.Errorf("acquisitions = %d, waiters = %d, want 2 and 0", c.Acquisitions(0), c.Waiters(0))
	}
	if c.WaitNanos(0) <= 0 {
		t.Errorf("WaitNanos = %d after a request queued behind a held latch, want > 0", c.WaitNanos(0))
	}
	for _, trc := range tr.Traces(0) {
		root := trc[0]
		if queued := root.Page == 2; queued != (root.LockWait > 0) {
			t.Errorf("Get(%d): LockWait = %d, want > 0 only for the request that queued", root.Page, root.LockWait)
		}
	}
}
