package buffer

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// recordingSink tallies events for assertions.
type recordingSink struct {
	obs.NopSink
	requests  []obs.RequestEvent
	evictions []obs.EvictionEvent
	adapts    int
}

func (r *recordingSink) Request(e obs.RequestEvent)   { r.requests = append(r.requests, e) }
func (r *recordingSink) Eviction(e obs.EvictionEvent) { r.evictions = append(r.evictions, e) }
func (r *recordingSink) Adapt(obs.AdaptEvent)         { r.adapts++ }

// reportingPolicy is a testPolicy with events of its own, as ASB has: it
// reports an adaptation through the context of every hit.
type reportingPolicy struct {
	testPolicy
}

func (p *reportingPolicy) OnHit(f *Frame, now uint64, ctx AccessContext) {
	p.testPolicy.OnHit(f, now, ctx)
	ctx.Adapt(obs.AdaptEvent{Page: f.Meta.ID})
}

func TestEngineEmitsRequestEvents(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSink{}
	m.SetSink(rec)

	get := func(id page.ID, q uint64) {
		t.Helper()
		if _, err := m.Get(id, AccessContext{QueryID: q}); err != nil {
			t.Fatal(err)
		}
	}
	get(1, 7) // miss
	get(1, 8) // hit
	get(2, 8) // miss
	get(3, 9) // miss + eviction

	// Every event — hit or miss — carries the page's Meta, so shadow
	// caches can replay spatial criteria from the stream alone.
	metaOf := func(id page.ID) page.Meta {
		t.Helper()
		p, err := s.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		return p.Meta
	}
	want := []obs.RequestEvent{
		{Page: 1, QueryID: 7, Hit: false, Meta: metaOf(1)},
		{Page: 1, QueryID: 8, Hit: true, Meta: metaOf(1)},
		{Page: 2, QueryID: 8, Hit: false, Meta: metaOf(2)},
		{Page: 3, QueryID: 9, Hit: false, Meta: metaOf(3)},
	}
	if len(rec.requests) != len(want) {
		t.Fatalf("recorded %d request events, want %d", len(rec.requests), len(want))
	}
	for i, e := range rec.requests {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}

	// Event stream and Stats must agree.
	st := m.Stats()
	hits := 0
	for _, e := range rec.requests {
		if e.Hit {
			hits++
		}
	}
	if uint64(len(rec.requests)) != st.Requests || uint64(hits) != st.Hits {
		t.Errorf("events (%d req, %d hits) disagree with stats %+v", len(rec.requests), hits, st)
	}
}

// TestContextEventsReachCurrentSink: what a policy reports through its
// request's context arrives at whichever sink the engine holds at that
// moment — re-attaching cannot leave the policy on the old one — and a
// context no engine made drops it.
func TestContextEventsReachCurrentSink(t *testing.T) {
	s := newStore(t, 4)
	pol := &reportingPolicy{testPolicy: *newTestPolicy()}
	m, err := NewEngine(s, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	get := func(ids ...page.ID) {
		t.Helper()
		for _, id := range ids {
			if _, err := m.Get(id, AccessContext{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := &recordingSink{}, &recordingSink{}
	m.SetSink(a)
	get(1, 1, 2, 3) // one hit, two evictions
	m.SetSink(b)
	get(3) // hit
	m.SetSink(nil)
	get(3) // hit, reported to nobody

	// The engine reports each eviction, from the policy's Choice.
	want := []obs.EvictionEvent{
		{Page: 1, Reason: "test", LRURank: -1},
		{Page: 2, Reason: "test", LRURank: -1},
	}
	if !reflect.DeepEqual(a.evictions, want) {
		t.Errorf("evictions = %+v, want %+v", a.evictions, want)
	}
	if a.adapts != 1 || len(a.requests) != 4 {
		t.Errorf("first sink saw %d adapts, %d requests, want 1, 4", a.adapts, len(a.requests))
	}
	if b.adapts != 1 || len(b.requests) != 1 || len(b.evictions) != 0 {
		t.Errorf("second sink saw %d adapts, %d requests, %d evictions, want 1, 1, 0",
			b.adapts, len(b.requests), len(b.evictions))
	}

	// Outside any engine the policy's reports go nowhere.
	pol.OnHit(m.frames.Get(3), 9, AccessContext{})
	if a.adapts+b.adapts != 2 {
		t.Error("a context no engine made delivered an event")
	}
}

func TestLockedEngineSetSink(t *testing.T) {
	s := newStore(t, 2)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sm := lockEngine(m)
	rec := &recordingSink{}
	sm.SetSink(rec)
	if _, err := sm.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if len(rec.requests) != 2 || rec.requests[0].Hit || !rec.requests[1].Hit {
		t.Errorf("sink saw %+v, want a miss then a hit", rec.requests)
	}
}

// latencyCount returns the requests the pool's latency histograms stand
// for, read through Pool.View as the live service reads them.
func latencyCount(pool Pool) uint64 {
	var lat, crit obs.LogHistogram
	for i := range pool.Shards() {
		pool.View(i, func(e *Engine) { e.AddHistograms(&lat, &crit) })
	}
	return lat.Count
}

// shardMates returns n page IDs from 1 up that the pool serves on the
// shard of page 1.
func shardMates(pool Pool, n int) []page.ID {
	var ids []page.ID
	for id := page.ID(1); len(ids) < n; id++ {
		if sp, ok := pool.(*Shared); !ok || sp.shardFor(id) == sp.shardFor(1) {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestEngineTimesRequestsForLatencySinks asserts the timing contract on
// every layout, with no sink attached: one request in sampleEvery — hit,
// miss or Put alike — records one sample
// standing for itself and the untimed ones before it, so after n
// requests and puts on one shard the latency count is n rounded down to
// a multiple of sampleEvery, and it moves only at those multiples.
func TestEngineTimesRequestsForLatencySinks(t *testing.T) {
	for _, spec := range []string{"bare", "locked", "sharded,shards=2", "async,shards=2"} {
		t.Run(spec, func(t *testing.T) {
			comp, err := ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			store := newStore(t, 32)
			pool, err := comp.Build(store, testFactoryFIFO, 16)
			if err != nil {
				t.Fatal(err)
			}
			if cl, ok := pool.(interface{ Close() error }); ok {
				defer cl.Close()
			}
			get := func(id page.ID) {
				t.Helper()
				if _, err := pool.Get(id, AccessContext{}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string, count uint64) {
				t.Helper()
				if got := latencyCount(pool); got != count {
					t.Fatalf("%s: latency count %d, want %d", when, got, count)
				}
			}

			ids := shardMates(pool, 4) // one engine serves every request
			const m, p = 3, 2
			for _, id := range ids[:m] {
				get(id)
			}
			check("after the misses", 0)
			for i := m; i < sampleEvery-1; i++ {
				get(ids[0])
			}
			check("before the first timed request", 0)
			get(ids[0])
			check("at the first timed request", sampleEvery)
			for i := 0; i < sampleEvery-p; i++ {
				get(ids[0])
			}
			check("before the second", sampleEvery)
			for _, id := range ids[m-1:] { // one resident, one not
				pg, err := store.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := pool.Put(pg, AccessContext{}); err != nil {
					t.Fatal(err)
				}
			}
			check("at the second timed request, a Put", 2*sampleEvery)

		})
	}
}

// TestDetachDuringAsyncMiss: a request timed when it entered may finish
// after SetSink(nil) — an async leader reads outside the latch, where a
// detach can run — and then still records its one sample, since the
// engine keeps its signals whatever sink is attached.
func TestDetachDuringAsyncMiss(t *testing.T) {
	const target = page.ID(3)
	gs := &gatedStore{Store: newStore(t, 8), gate: make(chan struct{}), only: target}
	pool, err := newAsync(gs, testFactoryFIFO, 8, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.SetTracer(tracing.NewTracer(1, 2, 16)) // every request traced, so timed
	rec := &recordingSink{}
	pool.SetSink(rec)
	done := make(chan error)
	go func() {
		_, err := pool.Get(target, AccessContext{})
		done <- err
	}()
	for pool.InflightReads() == 0 {
		runtime.Gosched()
	}
	pool.SetSink(nil)
	close(gs.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := latencyCount(pool); got != 1 {
		t.Errorf("a request finished after the detach recorded %d samples, want 1", got)
	}
	if len(rec.requests) != 0 {
		t.Errorf("the detached sink got %d request events", len(rec.requests))
	}
}

// TestRequestHitPathZeroAllocs is the acceptance gate of the
// observability layer: with the default no-op sink, a buffer hit must
// not allocate at all — attaching the event stream may cost nothing
// when it is not used.
func TestRequestHitPathZeroAllocs(t *testing.T) {
	s := newStore(t, 1)
	m, err := NewEngine(s, newTestPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{QueryID: 1}
	if _, err := m.Get(1, ctx); err != nil { // warm: admit the page
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.Get(1, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hit path allocates %.1f objects per request with the no-op sink, want 0", allocs)
	}
}

// BenchmarkEngineGetHit measures the hit path, which counts the live
// signals whatever is attached; run with -benchmem to see the 0
// allocs/op.
func BenchmarkEngineGetHit(b *testing.B) {
	s := newStore(b, 1)
	m, err := NewEngine(s, newTestPolicy(), 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := AccessContext{QueryID: 1}
	if _, err := m.Get(1, ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Get(1, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
