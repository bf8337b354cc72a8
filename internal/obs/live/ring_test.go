package live_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/shadow"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

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

// lockedPool builds the locked layout over store, with pol its one policy.
func lockedPool(t testing.TB, store storage.Store, pol buffer.Policy, frames int) buffer.Pool {
	t.Helper()
	comp, err := buffer.ParseComposition("locked")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := comp.Build(store, func(int) buffer.Policy { return pol }, frames)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// tally counts events by kind. Its callers are serialized by whoever
// feeds it: a ring's one drainer, or a pool's latch.
type tally struct {
	obs.NopSink
	requests, hits, misses, evictions, adapts uint64
}

func (c *tally) Request(e obs.RequestEvent) {
	c.requests++
	if e.Hit {
		c.hits++
	} else {
		c.misses++
	}
}

func (c *tally) Eviction(obs.EvictionEvent) { c.evictions++ }
func (c *tally) Adapt(obs.AdaptEvent)       { c.adapts++ }

func TestAsyncSinkDeliversInOrder(t *testing.T) {
	var down tally
	s := live.NewAsyncSink(&down, 128, nil)
	for i := 0; i < 50; i++ {
		s.Request(obs.RequestEvent{Page: page.ID(i + 1), Hit: i%2 == 0})
	}
	s.Eviction(obs.EvictionEvent{Page: 1, Reason: obs.ReasonLRU})
	s.Adapt(obs.AdaptEvent{OldC: 3, NewC: 4})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if down.requests != 50 || down.hits != 25 || down.evictions != 1 || down.adapts != 1 {
		t.Errorf("downstream saw %+v", down)
	}
	if s.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0 (ring larger than burst)", s.Dropped())
	}
	if s.Delivered() != 52 {
		t.Errorf("delivered = %d, want 52", s.Delivered())
	}
	// Close is idempotent and events after Close are counted as drops.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Request(obs.RequestEvent{Page: 99})
	if s.Dropped() != 1 {
		t.Errorf("post-close drops = %d, want 1", s.Dropped())
	}
}

// slowSink stalls on every event, forcing ring saturation.
type slowSink struct {
	obs.NopSink
	delay time.Duration
	seen  int
}

func (s *slowSink) Request(obs.RequestEvent) {
	time.Sleep(s.delay)
	s.seen++
}

func TestAsyncSinkDropAccountingUnderSaturation(t *testing.T) {
	down := &slowSink{delay: time.Millisecond}
	var hooked uint64
	var hookMu sync.Mutex
	s := live.NewAsyncSink(down, 4, func(n uint64) {
		hookMu.Lock()
		hooked += n
		hookMu.Unlock()
	})
	const emitted = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < emitted/4; i++ {
				s.Request(obs.RequestEvent{Page: 1})
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() == 0 {
		t.Error("expected drops with a 4-slot ring and a 1ms/event consumer")
	}
	if got := s.Delivered() + s.Dropped(); got != emitted {
		t.Errorf("delivered %d + dropped %d = %d, want %d (exact accounting)",
			s.Delivered(), s.Dropped(), got, emitted)
	}
	if uint64(down.seen) != s.Delivered() {
		t.Errorf("downstream saw %d, sink says delivered %d", down.seen, s.Delivered())
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if hooked != s.Dropped() {
		t.Errorf("drop hook counted %d, sink counted %d", hooked, s.Dropped())
	}
}

// TestLockedEngineWithAsyncRingSink is the satellite race test: several
// goroutines drive one locked pool with the ring sink attached (run
// under -race in CI). With a ring at least as large as the event volume
// there must be no drops and the downstream counters must agree exactly
// with the manager's stats.
func TestLockedEngineWithAsyncRingSink(t *testing.T) {
	const pages, frames = 64, 16
	const goroutines, perG = 8, 2000

	store := newStore(t, pages)
	pol := core.NewASB(frames, core.DefaultASBOptions())
	sm := lockedPool(t, store, pol, frames)

	var down tally
	// Capacity comfortably above the worst-case event volume (each
	// request can emit a request + eviction + promotion + adapt event).
	s := live.NewAsyncSink(&down, 4*goroutines*perG, nil)
	var direct tally // exact, synchronous control
	sm.SetSink(obs.Tee(&direct, s))

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := page.ID((g*7+i*13)%pages + 1)
				if _, err := sm.Get(id, buffer.AccessContext{QueryID: uint64(g)<<32 | uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sm.SetSink(nil) // detach producers before Close, per the contract
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if s.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0 at this rate and capacity", s.Dropped())
	}
	stats := sm.Stats()
	if down.requests != stats.Requests || down.hits != stats.Hits || down.misses != stats.Misses || down.evictions != stats.Evictions {
		t.Errorf("events behind the ring %+v disagree with stats %+v", down, stats)
	}
	if down != direct {
		t.Errorf("events behind the ring %+v != synchronous control %+v", down, direct)
	}
}

// TestObservedHitPathZeroAllocs is the allocation gate of the observed
// stack: an async pool carrying everything the end-to-end benchmark's
// serve-observed workload (bufserve's defaults) attaches — the service
// sink teed with a default shadow bank behind a default-size ring, the
// 1-in-1024 tracer and the contention profiler — allocates nothing per
// resident Get, and nothing per leader miss either (a MemStore page is
// the store's own, the flight record is recycled). A sampled trace does
// allocate; one in 1024 rounds to zero per request. The timed-hit case
// measures runs of 64 Gets on one page — one shard — so that every run
// holds exactly one request the engine times into its latency histogram.
func TestObservedHitPathZeroAllocs(t *testing.T) {
	const pages, shards = 64, 2
	for _, tc := range []struct {
		name   string
		policy string
		frames int
		hot    int // Gets cycle over pages 1..hot
		per    int // Gets per measured run
	}{
		{"hit", "ASB", 2 * pages, 8, 1},        // everything resident
		{"leader-miss", "LRU", 8, pages, 1},    // a cycle longer than the cache: LRU always misses
		{"timed-hit", "ASB", 2 * pages, 1, 64}, // one timed request per run
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory, err := core.Resolver(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := buffer.ParseComposition("async,shards=2")
			if err != nil {
				t.Fatal(err)
			}
			pool, err := comp.Build(newStore(t, pages), factory, tc.frames)
			if err != nil {
				t.Fatal(err)
			}
			svc := live.NewService()
			bank, err := shadow.NewBank(shadow.Specs(tc.policy, tc.frames, shadow.DefaultPolicies(), shadow.DefaultLadder()), core.Resolver, 0)
			if err != nil {
				t.Fatal(err)
			}
			ring := live.NewAsyncSink(bank, 0, svc.Counters.AddDropped)
			pool.SetSink(obs.Tee(svc.Sink(), ring))
			ip := pool.(interface {
				SetTracer(*tracing.Tracer)
				EnableContention(*tracing.Contention)
				Close() error
			})
			ip.SetTracer(tracing.NewTracer(1024, shards, 256))
			ip.EnableContention(tracing.NewContention(shards))

			ctx := buffer.AccessContext{QueryID: 1}
			next := 0
			get := func() {
				next = next%tc.hot + 1
				if _, err := pool.Get(page.ID(next), ctx); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*pages; i++ { // warm: admit the pages, fill the shadows
				get()
			}
			before, timed := pool.Stats(), svc.Signals().Latency.Count
			allocs := testing.AllocsPerRun(2000, func() {
				for range tc.per {
					get()
				}
			})
			after := pool.Stats()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if tc.hot < pages && misses != 0 || tc.hot == pages && hits != 0 {
				t.Fatalf("%d hits and %d misses: not the %s path alone", hits, misses, tc.name)
			}
			// Each shard leaves fewer than 64 requests untimed.
			if timed = svc.Signals().Latency.Count - timed; timed+64*shards < 2000*uint64(tc.per) {
				t.Errorf("latency count grew by %d over 2000 runs of %d Gets: the requests were not timed", timed, tc.per)
			}
			if allocs != 0 {
				t.Errorf("observed %s allocates %.1f objects per run of %d Gets, want 0", tc.name, allocs, tc.per)
			}
			pool.SetSink(nil)
			if err := ring.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ip.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
