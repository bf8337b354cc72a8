package core_test

// Tests of the lock layer's latch-free hit path (DESIGN.md §5c) under
// the real policies: what every shared composition must still add up to
// when four goroutines race on it, and that deferring the bookkeeping of
// hits changes nothing a shard's policy or sink can see.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

func factoriesNamed(t *testing.T, names ...string) []core.Factory {
	t.Helper()
	fs := make([]core.Factory, len(names))
	for i, n := range names {
		f, err := core.FactoryByName(n)
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	return fs
}

// TestSharedHitPathInvariants: four goroutines mix Gets, Fix/Unfix pairs
// and Puts over 60 pages in 12 frames, so hits served latch-free race
// with evictions, in-place replacements and (async) out-of-latch reads of
// their shard. At quiescence the engine's identities hold exactly, the
// store saw the reads the pool claims, a sink tallying the events agrees
// with Stats once Stats has been asked (the barrier that reports deferred
// hits), no pin is left, and every Get returned the page it asked for.
func TestSharedHitPathInvariants(t *testing.T) {
	const numPages, capacity, workers, perWorker = 60, 12, 4, 3000
	for _, layout := range []string{"locked", "sharded,shards=2", "async,shards=2"} {
		for _, f := range factoriesNamed(t, "LRU", "ASB", "CLOCK") {
			t.Run(f.Name+"/"+layout, func(t *testing.T) {
				store := buildStore(t, conformanceSpecs(numPages, 7))
				pool := buildComposition(t, layout, store, f, capacity)
				events := &tally{}
				pool.SetSink(events)

				var reads, puts atomic.Uint64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w + 1)))
						for i := 0; i < perWorker; i++ {
							id := page.ID(1 + rng.Intn(numPages))
							if rng.Intn(3) > 0 {
								id = page.ID(1 + rng.Intn(numPages/6)) // a hot sixth that stays mostly resident
							}
							ctx := buffer.AccessContext{QueryID: uint64(w)<<32 | uint64(i/5)}
							var got *page.Page
							var err error
							switch r := rng.Intn(100); {
							case r < 6:
								p := page.New(id, page.TypeData, 0, 1)
								p.Append(page.Entry{MBR: geom.NewRect(0, 0, float64(1+i%9), 1), ObjID: uint64(id)})
								p.Recompute()
								puts.Add(1)
								err = pool.Put(p, ctx)
							case r < 16:
								reads.Add(1)
								if got, err = pool.Fix(id, ctx); err == nil {
									err = pool.Unfix(id)
								}
							default:
								reads.Add(1)
								got, err = pool.Get(id, ctx)
							}
							if err != nil {
								t.Errorf("worker %d step %d page %d: %v", w, i, id, err)
								return
							}
							if got != nil && got.ID != id {
								t.Errorf("asked for page %d, got page %d", id, got.ID)
								return
							}
						}
					}(w)
				}
				wg.Wait()

				st := pool.Stats()
				if st.Requests != reads.Load() || st.Hits+st.Misses != st.Requests || st.Puts != puts.Load() {
					t.Errorf("stats %+v after %d reads and %d puts", st, reads.Load(), puts.Load())
				}
				if st.Hits == 0 || st.Evictions == 0 {
					t.Errorf("stats %+v: the run was meant to hit and to evict", st)
				}
				if got := store.Stats().Reads; got != st.DiskReads() {
					t.Errorf("store saw %d reads, pool reports %d", got, st.DiskReads())
				}
				if r, h, e := events.requests.Load(), events.hits.Load(), events.evictions.Load(); r != st.Requests || h != st.Hits || e != st.Evictions {
					t.Errorf("sink saw %d/%d/%d requests/hits/evictions, stats %d/%d/%d",
						r, h, e, st.Requests, st.Hits, st.Evictions)
				}
				for id := page.ID(1); id <= numPages; id++ {
					if pool.Unfix(id) == nil {
						t.Errorf("page %d was left pinned", id)
					}
				}
				if pool.Len() > capacity {
					t.Errorf("%d pages resident in %d frames", pool.Len(), capacity)
				}
				closePool(t, pool)
			})
		}
	}
}

// tally counts the events a concurrent pool emits.
type tally struct {
	obs.NopSink
	requests, hits, evictions atomic.Uint64
}

func (c *tally) Request(e obs.RequestEvent) {
	c.requests.Add(1)
	if e.Hit {
		c.hits.Add(1)
	}
}

func (c *tally) Eviction(obs.EvictionEvent) { c.evictions.Add(1) }

// shardedPool is what the order test needs of a multi-shard composition.
type shardedPool interface {
	buffer.Pool
	EnableContention(c *tracing.Contention)
}

// shardDigests hashes every event into the digest of the shard it is
// tagged with. The replay it listens to runs on one goroutine.
type shardDigests []hash.Hash64

func (d shardDigests) Request(e obs.RequestEvent)   { fmt.Fprintf(d[e.Shard], "R %+v\n", e) }
func (d shardDigests) Eviction(e obs.EvictionEvent) { fmt.Fprintf(d[e.Shard], "E %+v\n", e) }
func (d shardDigests) OverflowPromotion(e obs.OverflowPromotionEvent) {
	fmt.Fprintf(d[e.Shard], "P %+v\n", e)
}
func (d shardDigests) Adapt(e obs.AdaptEvent) { fmt.Fprintf(d[e.Shard], "A %+v\n", e) }

// latchHold parks the request for one page inside its Request event,
// which the engine emits under the shard's latch.
type latchHold struct {
	obs.NopSink
	page             atomic.Uint64
	entered, release chan struct{}
}

func (h *latchHold) Request(e obs.RequestEvent) {
	if uint64(e.Page) == h.page.Load() {
		h.page.Store(0)
		h.entered <- struct{}{}
		<-h.release
	}
}

// shardReplay is what one shard showed of a goldenReplay.
type shardReplay struct {
	events       uint64
	stats        buffer.Stats
	acquisitions uint64
}

// replaySharded runs goldenReplay on a fresh pool of 12 frames and
// reports per shard, the digest of the shard's events included.
func replaySharded(t *testing.T, layout string, f core.Factory, hold bool) []shardReplay {
	t.Helper()
	var digests shardDigests
	out := replayShardedInto(t, layout, f, 12, hold, func(shards int) obs.Sink {
		digests = make(shardDigests, shards)
		for i := range digests {
			digests[i] = fnv.New64a()
		}
		return digests
	})
	for i := range out {
		out[i].events = digests[i].Sum64()
	}
	return out
}

// replayShardedInto runs goldenReplay on a fresh pool with the sink that
// newSink makes for its shard count attached, and reports every shard's
// counters. Before the replay it touches two pages of every shard, x then
// y, and clears the pool; with hold set, the request for x is kept inside
// the latch by a second goroutine while the request for y arrives — which
// is how a shard learns that it is shared and starts to defer.
func replayShardedInto(t *testing.T, layout string, f core.Factory, capacity int, hold bool, newSink func(shards int) obs.Sink) []shardReplay {
	t.Helper()
	const numPages = 60
	store := buildStore(t, conformanceSpecs(numPages, 7))
	pool := buildComposition(t, layout, store, f, capacity).(shardedPool)
	defer closePool(t, pool)
	gate := &latchHold{entered: make(chan struct{}), release: make(chan struct{})}
	pool.SetSink(gate)

	// Two pages per shard: the shard of a page is the one whose request
	// count a Get of it moves.
	pages := make([][]page.ID, pool.Shards())
	for id, found := page.ID(1), 0; found < 2*pool.Shards(); id++ {
		if id > numPages {
			t.Fatal("no two pages per shard")
		}
		before := make([]uint64, pool.Shards())
		for i := range before {
			before[i] = shardStats(pool, i).Requests
		}
		if _, err := pool.Get(id, buffer.AccessContext{}); err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if shardStats(pool, i).Requests != before[i] && len(pages[i]) < 2 {
				pages[i] = append(pages[i], id)
				found++
			}
		}
	}
	for _, xy := range pages {
		x, y := xy[0], xy[1]
		if !poolContains(pool, x) || !poolContains(pool, y) {
			t.Fatalf("pages %d and %d should still be resident", x, y) // else the Get of y would queue behind the hold
		}
		done := make(chan error, 1)
		if hold {
			gate.page.Store(uint64(x))
		}
		go func() {
			_, err := pool.Get(x, buffer.AccessContext{})
			done <- err
		}()
		if hold {
			<-gate.entered
		} else if err := <-done; err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Get(y, buffer.AccessContext{}); err != nil {
			t.Fatal(err)
		}
		if hold {
			gate.release <- struct{}{}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}

	pool.SetSink(newSink(pool.Shards()))
	cont := tracing.NewContention(pool.Shards())
	pool.EnableContention(cont)
	goldenReplay(t, pool, store)
	out := make([]shardReplay, pool.Shards())
	for i := range out {
		out[i].stats = shardStats(pool, i) // the barrier that reports the shard's last deferred hits
		out[i].acquisitions = cont.Acquisitions(i)
	}
	return out
}

// TestDeferredReplayKeepsShardOrder: a shard that has seen a second
// goroutine defers the bookkeeping of its hits to the next latch holder,
// who replays them in request order before doing anything else. On an
// otherwise single-goroutine replay that must be invisible: per shard,
// the event stream and the final counters equal those of the run that
// never deferred. What differs is that the deferred hits acquired
// nothing.
func TestDeferredReplayKeepsShardOrder(t *testing.T) {
	// Not the async layout: with Puts in the replay, whether a miss finds
	// its page still in the write-back queue depends on the writers' pace.
	const layout = "sharded,shards=2"
	for _, f := range shardableFactories() {
		t.Run(f.Name, func(t *testing.T) {
			direct := replaySharded(t, layout, f, false)
			deferred := replaySharded(t, layout, f, true)
			for i := range direct {
				d, q := direct[i], deferred[i]
				if d.stats.Hits < 200 || d.stats.Evictions == 0 {
					t.Fatalf("shard %d: stats %+v, the replay was meant to hit and to evict", i, d.stats)
				}
				if q.stats != d.stats {
					t.Errorf("shard %d: stats %+v deferred, %+v direct", i, q.stats, d.stats)
				}
				if q.events != d.events {
					t.Errorf("shard %d: event stream %016x deferred, %016x direct", i, q.events, d.events)
				}
				if q.acquisitions+d.stats.Hits/2 > d.acquisitions {
					t.Errorf("shard %d: %d latch acquisitions deferred, %d direct, for %d hits: most Get hits should have acquired nothing",
						i, q.acquisitions, d.acquisitions, d.stats.Hits)
				}
			}
		})
	}
}

// stamped is one event as stampLog saw it: kind, page (0 for an Adapt)
// and the shard it was stamped with.
type stamped struct {
	kind  byte
	page  page.ID
	shard int
}

// stampLog keeps every event's stamp, in arrival order. The replay it
// listens to runs on one goroutine.
type stampLog []stamped

func (l *stampLog) Request(e obs.RequestEvent)   { *l = append(*l, stamped{'R', e.Page, e.Shard}) }
func (l *stampLog) Eviction(e obs.EvictionEvent) { *l = append(*l, stamped{'E', e.Page, e.Shard}) }
func (l *stampLog) OverflowPromotion(e obs.OverflowPromotionEvent) {
	*l = append(*l, stamped{'P', e.Page, e.Shard})
}
func (l *stampLog) Adapt(e obs.AdaptEvent) { *l = append(*l, stamped{'A', 0, e.Shard}) }

// TestEventsCarryTheirShard: one sink, handed unwrapped to every shard,
// sees each event under the index of the shard that emitted it, whether
// the engine emitted it for itself (Request, Eviction — as many per shard
// as the shard counted) or for its policy through the request's context
// (ASB's OverflowPromotion follows the Request of the same page, its
// Adapt follows that promotion, both on that request's shard) — and a
// hit replayed from the ring is stamped like one served under the latch.
func TestEventsCarryTheirShard(t *testing.T) {
	asb := factoriesNamed(t, "ASB")[0]
	for _, layout := range []string{"sharded,shards=4", "async,shards=4"} {
		for _, hold := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hold=%t", layout, hold), func(t *testing.T) {
				log := &stampLog{}
				shards := replayShardedInto(t, layout, asb, 24, hold, func(int) obs.Sink { return log })
				if len(shards) != 4 {
					t.Fatalf("%d shards, want 4", len(shards))
				}
				requests, evictions := make([]uint64, len(shards)), make([]uint64, len(shards))
				promotions := 0
				for i, e := range *log {
					switch e.kind {
					case 'R':
						requests[e.shard]++
					case 'E':
						evictions[e.shard]++
					case 'P':
						promotions++
						if prev := (*log)[i-1]; prev.kind != 'R' || prev.page != e.page || prev.shard != e.shard {
							t.Fatalf("event %d: promotion %+v follows %+v", i, e, prev)
						}
					case 'A':
						if prev := (*log)[i-1]; prev.kind != 'P' || prev.shard != e.shard {
							t.Fatalf("event %d: adapt %+v follows %+v", i, e, prev)
						}
					}
				}
				for i, sh := range shards {
					if hold && sh.acquisitions >= sh.stats.Requests {
						t.Errorf("shard %d: %d latch acquisitions for %d requests: no hit was deferred", i, sh.acquisitions, sh.stats.Requests)
					}
					if sh.stats.Hits == 0 || sh.stats.Evictions == 0 {
						t.Errorf("shard %d: stats %+v, the replay was meant to hit and to evict", i, sh.stats)
					}
					if requests[i] != sh.stats.Requests || evictions[i] != sh.stats.Evictions {
						t.Errorf("shard %d: %d requests and %d evictions stamped, %d and %d counted",
							i, requests[i], evictions[i], sh.stats.Requests, sh.stats.Evictions)
					}
				}
				if promotions == 0 {
					t.Error("the replay was meant to hit ASB's overflow buffer")
				}
			})
		}
	}
}

// refCheck counts the Request events of every shard and holds each Adapt
// against them. The replay it listens to runs on one goroutine.
type refCheck struct {
	obs.NopSink
	requests      []uint64
	adapts, wrong int
	first         string
}

func (c *refCheck) Request(e obs.RequestEvent) { c.requests[e.Shard]++ }

func (c *refCheck) Adapt(e obs.AdaptEvent) {
	c.adapts++
	if e.Ref == c.requests[e.Shard] {
		return
	}
	if c.wrong++; c.wrong == 1 {
		c.first = fmt.Sprintf("%+v after %d requests on its shard", e, c.requests[e.Shard])
	}
}

// TestAdaptRefCountsRequests: the engine stamps every Adapt with its own
// request count, so Ref is the number of Request events its shard has
// emitted so far, the request that adapted included — the reference index
// of Fig. 14, without anybody counting Request events to learn it. On a
// bare engine, and per shard on a sharded and an async pool, with hits
// served under the latch and with their bookkeeping deferred.
func TestAdaptRefCountsRequests(t *testing.T) {
	asb := factoriesNamed(t, "ASB")[0]
	check := func(t *testing.T, c *refCheck) {
		t.Helper()
		if c.adapts == 0 {
			t.Fatal("the replay was meant to adapt c")
		}
		if c.wrong > 0 {
			t.Errorf("%d of %d adaptations carry another Ref than their shard's request count; first: %s", c.wrong, c.adapts, c.first)
		}
	}
	t.Run("bare", func(t *testing.T) {
		store := buildStore(t, conformanceSpecs(60, 7))
		pool := buildComposition(t, "bare", store, asb, 12)
		c := &refCheck{requests: make([]uint64, 1)}
		pool.SetSink(c)
		goldenReplay(t, pool, store)
		check(t, c)
	})
	for _, layout := range []string{"sharded,shards=4", "async,shards=4"} {
		for _, hold := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hold=%t", layout, hold), func(t *testing.T) {
				c := &refCheck{}
				shards := replayShardedInto(t, layout, asb, 24, hold, func(n int) obs.Sink {
					c.requests = make([]uint64, n)
					return c
				})
				for i, sh := range shards {
					if hold && sh.acquisitions >= sh.stats.Requests {
						t.Errorf("shard %d: %d latch acquisitions for %d requests: no hit was deferred", i, sh.acquisitions, sh.stats.Requests)
					}
					if c.requests[i] != sh.stats.Requests {
						t.Errorf("shard %d: %d Request events, %d counted", i, c.requests[i], sh.stats.Requests)
					}
				}
				check(t, c)
			})
		}
	}
}
