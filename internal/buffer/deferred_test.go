package buffer

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

// shardsOf returns every shard of a shared pool.
func shardsOf(t testing.TB, pool Pool) []*shard {
	t.Helper()
	s, ok := pool.(*Shared)
	if !ok {
		t.Fatalf("%T has no shards", pool)
	}
	return s.shards
}

// forceDeferral makes every shard serve resident pages latch-free for
// good, as if each of its latch acquisitions from here on collided.
func forceDeferral(t testing.TB, pool Pool) {
	for _, l := range shardsOf(t, pool) {
		l.deferLeft.Store(1 << 30)
	}
}

// TestFrameTableMatchesMap drives the frame table and a map through the
// same random admissions, replacements and evictions at the table's
// densest (half full, a few dozen slots, so runs wrap around and
// deletions shift), while a reader probes it without any serialization:
// whatever page the reader gets must be the one it asked for.
func TestFrameTableMatchesMap(t *testing.T) {
	const capacity, ids, steps = 24, 96, 20000
	tab := NewFrameTable(capacity)
	tab.publish()
	if len(tab.slots) != 64 {
		t.Fatalf("%d slots for capacity %d, want 64", len(tab.slots), capacity)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := page.ID(0); ; id = (id + 1) % (ids + 2) {
			select {
			case <-stop:
				return
			default:
			}
			if p := tab.page(id); p != nil && p.ID != id {
				t.Errorf("page(%d) returned page %d", id, p.ID)
				return
			}
		}
	}()

	model := map[page.ID]*Frame{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < steps; i++ {
		id := page.ID(1 + rng.Intn(ids))
		switch f := model[id]; {
		case f == nil && len(model) < capacity:
			f = &Frame{Page: page.New(id, page.TypeData, 0, 0)}
			f.Meta = f.Page.Meta
			model[id] = f
			tab.Put(f)
		case f != nil && rng.Intn(3) == 0: // Put in place
			f.Page = page.New(id, page.TypeData, 0, 0)
			tab.Put(f)
		case f != nil:
			delete(model, id)
			tab.Delete(id)
		}
		if tab.n != len(model) {
			t.Fatalf("step %d: n = %d, model holds %d", i, tab.n, len(model))
		}
		probe := page.ID(rng.Intn(ids + 2)) // 0 and ids+1 are never resident
		if got := tab.Get(probe); got != model[probe] {
			t.Fatalf("step %d: get(%d) = %p, model says %p", i, probe, got, model[probe])
		}
		if f := model[probe]; f != nil && tab.page(probe) != f.Page {
			t.Fatalf("step %d: page(%d) is not the frame's current page", i, probe)
		}
	}
	for id, f := range model {
		if tab.Get(id) != f {
			t.Fatalf("get(%d) lost its frame", id)
		}
	}
	tab.clear()
	if tab.Len() != 0 || tab.Get(1) != nil || tab.page(1) != nil {
		t.Fatal("table not empty after clear")
	}
	close(stop)
	wg.Wait()
}

// TestDeferredHitOfEvictedPage covers the one case where a replayed hit
// finds no frame: the page was served latch-free while another request
// held the latch, and that request evicted it. The hit still counts as
// one Request and one Hit and reaches the sink with the page's Meta, but
// the policy hears nothing of it.
func TestDeferredHitOfEvictedPage(t *testing.T) {
	pol := newTestPolicy()
	e, err := NewEngine(newStore(t, 2), pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := lockEngine(e)
	rec := &recordingSink{}
	l.SetSink(rec)
	want, err := l.Get(1, AccessContext{})
	if err != nil {
		t.Fatal(err)
	}

	l.shards[0].mu.Lock() // a second goroutine's request, already past its drain
	got, err := l.Get(1, AccessContext{QueryID: 7})
	if err != nil || got != want {
		t.Fatalf("latch-free Get(1) = %p, %v; want the resident page %p", got, err, want)
	}
	if st := e.Stats(); st.Requests != 1 {
		t.Fatalf("the engine has accounted %d requests while the hit is deferred, want 1", st.Requests)
	}
	if _, err := e.Get(2, AccessContext{}); err != nil { // evicts page 1
		t.Fatal(err)
	}
	l.shards[0].mu.Unlock()

	st := l.Stats() // the barrier replays the hit
	if st.Requests != 3 || st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 3 requests, 1 hit, 2 misses, 1 eviction", st)
	}
	if pol.hits != 0 {
		t.Errorf("policy saw %d OnHit calls for a page it no longer holds", pol.hits)
	}
	if n := len(rec.requests); n != 3 {
		t.Fatalf("sink saw %d request events, want 3", n)
	}
	if ev := rec.requests[2]; !ev.Hit || ev.Page != 1 || ev.QueryID != 7 || ev.Meta != want.Meta {
		t.Errorf("replayed event = %+v", ev)
	}
}

// TestViewSeesDeferredHits: View is a barrier like every other latch
// acquisition. While a shard defers, hits sit in its ring and its engine
// has not heard of them; what f reads inside View has them all, on every
// layout that has a latch to forward to.
func TestViewSeesDeferredHits(t *testing.T) {
	const hits = hitRingHalf - 7 // they fit one half: nothing drains them on the way
	for _, spec := range []string{"locked", "sharded,shards=1", "async,shards=1"} {
		t.Run(spec, func(t *testing.T) {
			comp, err := ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := comp.Build(newStore(t, 2), testFactory, 2)
			if err != nil {
				t.Fatal(err)
			}
			if cl, ok := pool.(interface{ Close() error }); ok {
				defer cl.Close()
			}
			if _, err := pool.Get(1, AccessContext{}); err != nil {
				t.Fatal(err)
			}
			forceDeferral(t, pool)
			for i := 0; i < hits; i++ {
				if _, err := pool.Get(1, AccessContext{}); err != nil {
					t.Fatal(err)
				}
			}
			if st := shardsOf(t, pool)[0].e.stats; st.Hits != 0 {
				t.Fatalf("the engine has accounted %d hits before any barrier, want them in the ring", st.Hits)
			}
			var st Stats
			pool.View(0, func(e *Engine) { st = e.Stats() })
			if st.Hits != hits || st.Requests != hits+1 {
				t.Errorf("inside View: %+v, want %d hits of %d requests", st, hits, hits+1)
			}
		})
	}
}

// TestDeferredHitsKeepLatencyWeights: a replayed hit goes through the
// same one-in-sampleEvery timing as a direct one, so the latency count
// still sums to the requests, short of the last partial interval.
func TestDeferredHitsKeepLatencyWeights(t *testing.T) {
	const hits = 5*sampleEvery + 17
	e, err := NewEngine(newStore(t, 2), newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	l := lockEngine(e)
	log := &signalLog{}
	l.SetSink(log)
	if _, err := l.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	forceDeferral(t, l)
	for i := 0; i < hits; i++ {
		if _, err := l.Get(1, AccessContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Hits != hits {
		t.Fatalf("hits = %d, want %d", st.Hits, hits)
	}
	if got := log.read().Latency.Count; got != 5*sampleEvery {
		t.Errorf("latency count %d after %d requests, want %d", got, 1+hits, 5*sampleEvery)
	}
}

// TestDeferredHitsOnOneP: with a single P, a drainer that waited for an
// unpublished record by spinning would keep the producer that owes it
// from running. Eight goroutines hammer one deferring shard; then a
// record is claimed and published only once a drainer is waiting for it.
// CI also runs this test with GOMAXPROCS=1 in the environment.
func TestDeferredHitsOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const goroutines, perG, resident = 8, 4000, 4
	e, err := NewEngine(newStore(t, 8), newTestPolicy(), 8)
	if err != nil {
		t.Fatal(err)
	}
	l := lockEngine(e)
	for id := page.ID(1); id <= resident; id++ {
		if _, err := l.Get(id, AccessContext{}); err != nil {
			t.Fatal(err)
		}
	}
	forceDeferral(t, l)

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					id := page.ID(1 + (g+i)%resident)
					if p, err := l.Get(id, AccessContext{QueryID: uint64(g)}); err != nil || p.ID != id {
						t.Errorf("Get(%d) = %v, %v", id, p, err)
						return
					}
					if i%97 == 0 {
						runtime.Gosched() // leave records claimed by several goroutines in one half
					}
				}
			}(g)
		}
		wg.Wait()

		l.Stats() // empty the ring, so the next claim is record 0
		c := l.shards[0].hits.cursor.Add(1)
		rec := &l.shards[0].hits.halves[c>>32&1][uint32(c)-1]
		drained := make(chan Stats)
		go func() { drained <- l.Stats() }()
		for l.shards[0].mu.TryLock() { // until the drainer holds the latch and waits
			l.shards[0].mu.Unlock()
			runtime.Gosched()
		}
		rec.pg, rec.query = e.frames.Get(1).Page, 99
		rec.ready.Store(true)
		if st := <-drained; st.Requests != resident+goroutines*perG+1 || st.Hits != goroutines*perG+1 {
			t.Errorf("stats = %+v after %d hits", st, goroutines*perG+1)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deferred hits wedged on one P")
	}
}
