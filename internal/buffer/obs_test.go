package buffer

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
)

// recordingSink tallies events for assertions.
type recordingSink struct {
	obs.NopSink
	requests   []obs.RequestEvent
	evictions  []obs.EvictionEvent
	promotions int
	adapts     int
}

func (r *recordingSink) Request(e obs.RequestEvent)   { r.requests = append(r.requests, e) }
func (r *recordingSink) Eviction(e obs.EvictionEvent) { r.evictions = append(r.evictions, e) }
func (r *recordingSink) OverflowPromotion(obs.OverflowPromotionEvent) {
	r.promotions++
}
func (r *recordingSink) Adapt(obs.AdaptEvent) { r.adapts++ }

// reportingPolicy is a testPolicy with events of its own, as ASB has: it
// reports a promotion and an adaptation through the context of every hit.
type reportingPolicy struct {
	testPolicy
}

func (p *reportingPolicy) OnHit(f *Frame, now uint64, ctx AccessContext) {
	p.testPolicy.OnHit(f, now, ctx)
	ctx.OverflowPromotion(obs.OverflowPromotionEvent{Page: f.Meta.ID})
	ctx.Adapt(obs.AdaptEvent{})
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
	if a.promotions != 1 || a.adapts != 1 || len(a.requests) != 4 {
		t.Errorf("first sink saw %d promotions, %d adapts, %d requests, want 1, 1, 4",
			a.promotions, a.adapts, len(a.requests))
	}
	if b.promotions != 1 || b.adapts != 1 || len(b.requests) != 1 || len(b.evictions) != 0 {
		t.Errorf("second sink saw %d promotions, %d adapts, %d requests, %d evictions, want 1, 1, 1, 0",
			b.promotions, b.adapts, len(b.requests), len(b.evictions))
	}

	// Outside any engine the policy's reports go nowhere.
	pol.OnHit(m.frames.get(3), 9, AccessContext{})
	if a.promotions+b.promotions != 2 || a.adapts+b.adapts != 2 {
		t.Error("a context no engine made delivered an event")
	}
}

func TestLockedEngineSetSink(t *testing.T) {
	s := newStore(t, 2)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sm := Lock(m)
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

// latencyLog records the calls and the summed weights an engine makes to
// its latency recorder.
type latencyLog struct {
	obs.NopSink
	calls  int
	weight uint64
	nanos  []int64
}

func (l *latencyLog) RecordLatency(nanos int64, weight uint64) {
	l.calls++
	l.weight += weight
	l.nanos = append(l.nanos, nanos)
}

// TestEngineTimesRequestsForLatencySinks asserts the timing contract on
// every layout: when (and only when) the attached sink implements
// obs.LatencyRecorder, each miss and each Put publishes one sample of
// weight 1 and every hitSample-th hit one sample of weight hitSample, so
// over h hits (a multiple of hitSample, all on one page, hence one
// shard), m misses and p puts the recorder sees m + p + h/hitSample
// calls whose weights sum to h + m + p.
func TestEngineTimesRequestsForLatencySinks(t *testing.T) {
	for _, spec := range []string{"bare", "locked", "sharded,shards=2", "async,shards=2"} {
		t.Run(spec, func(t *testing.T) {
			comp, err := ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			store := newStore(t, 8)
			pool, err := comp.Build(store, testFactoryFIFO, 16)
			if err != nil {
				t.Fatal(err)
			}
			if cl, ok := pool.(interface{ Close() error }); ok {
				defer cl.Close()
			}
			log := &latencyLog{}
			pool.SetSink(log)
			get := func(id page.ID) {
				t.Helper()
				if _, err := pool.Get(id, AccessContext{}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string, calls int, weight uint64) {
				t.Helper()
				if log.calls != calls || log.weight != weight {
					t.Fatalf("%s: %d calls of summed weight %d, want %d and %d", when, log.calls, log.weight, calls, weight)
				}
			}

			const m, p, h = 3, 2, 2 * hitSample
			for id := page.ID(1); id <= m; id++ {
				get(id)
			}
			check("after the misses", m, m)
			for i := 0; i < hitSample-1; i++ {
				get(1)
			}
			check("before the first timed hit", m, m)
			get(1)
			check("at the first timed hit", m+1, m+hitSample)
			for i := 0; i < h-hitSample; i++ {
				get(1)
			}
			for _, id := range []page.ID{2, 7} { // one resident, one not
				pg, err := store.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := pool.Put(pg, AccessContext{}); err != nil {
					t.Fatal(err)
				}
			}
			check("at the end", m+p+h/hitSample, m+p+h)

			pool.SetSink(nil) // detaching stops misses and hits alike
			get(8)
			for i := 0; i < hitSample; i++ {
				get(1)
			}
			check("after detaching", m+p+h/hitSample, m+p+h)
		})
	}

	// A sink that records no latency leaves the engine without a timer —
	// the only thing that makes it read the clock for a request.
	e, err := NewEngine(newStore(t, 1), newTestPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []obs.Sink{&obs.Counters{}, obs.NopSink{}, nil} {
		e.SetSink(&obs.Histogram{})
		e.SetSink(s)
		if e.timer != nil {
			t.Errorf("sink %T left a latency timer attached", s)
		}
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

// BenchmarkEngineGetHit measures the hit path with and without a
// counting sink attached; run with -benchmem to see the 0 allocs/op.
func BenchmarkEngineGetHit(b *testing.B) {
	for _, cfg := range []struct {
		name string
		sink obs.Sink
	}{
		{"nop-sink", nil},
		{"counters-sink", &obs.Counters{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s := newStore(b, 1)
			m, err := NewEngine(s, newTestPolicy(), 1)
			if err != nil {
				b.Fatal(err)
			}
			if cfg.sink != nil {
				m.SetSink(cfg.sink)
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
		})
	}
}
