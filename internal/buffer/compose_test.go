package buffer

import (
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

func TestParseComposition(t *testing.T) {
	cases := []struct {
		spec string
		want Composition
		// shards is the expected ShardCount; 0 stands for GOMAXPROCS.
		shards int
	}{
		{"bare", Composition{Layout: LayoutBare}, 1},
		{"locked", Composition{Layout: layoutLocked}, 1},
		{"sharded", Composition{Layout: layoutSharded}, 0},
		{"sharded,shards=4", Composition{Layout: layoutSharded, Shards: 4}, 4},
		{"async", Composition{Layout: layoutAsync}, 0},
		{"async,shards=8,wbworkers=2", Composition{Layout: layoutAsync, Shards: 8, WritebackWorkers: 2}, 8},
		{" Async , Shards=2 ", Composition{Layout: layoutAsync, Shards: 2}, 2},
		{"sharded,shards=0", Composition{Layout: layoutSharded}, 0},
		{"async,shards=1024,wbworkers=256", Composition{Layout: layoutAsync, Shards: maxShards, WritebackWorkers: maxWritebackWorkers}, maxShards},
	}
	for _, c := range cases {
		got, err := ParseComposition(c.spec)
		if err != nil {
			t.Errorf("ParseComposition(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseComposition(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		want := c.shards
		if want == 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if n := got.ShardCount(); n != want {
			t.Errorf("ParseComposition(%q).ShardCount() = %d, want %d", c.spec, n, want)
		}
	}

	bad := []string{
		"",
		"turbo",
		"bare,shards=2",
		"locked,shards=2",
		"sharded,wbworkers=2",
		"sharded,shards",
		"sharded,shards=-1",
		"sharded,shards=two",
		"async,wbunknown=1",
		"async,shards=2000000000",
		"sharded,shards=1025",
		"async,wbworkers=2000000000",
		"async,wbworkers=257",
		"async,wbqueue=2000000000",
		"async,wbqueue=1048577",
		"async,shards=8,wbworkers=2,wbqueue=256",
		"async,shards=1024,wbworkers=256,wbqueue=1048576",
		"async,shards=2,shards=8",
		"async,wbworkers=1,wbworkers=2",
		"sharded,shards=2,SHARDS=4",
	}
	for _, spec := range bad {
		if got, err := ParseComposition(spec); err == nil {
			t.Errorf("ParseComposition(%q) = %+v, want error", spec, got)
		}
	}
}

func TestCompositionStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"bare", "locked", "sharded", "sharded,shards=4",
		"async", "async,shards=8", "async,shards=8,wbworkers=2",
	} {
		c, err := ParseComposition(spec)
		if err != nil {
			t.Fatalf("ParseComposition(%q): %v", spec, err)
		}
		if c.String() != spec {
			t.Errorf("ParseComposition(%q).String() = %q", spec, c.String())
		}
		again, err := ParseComposition(c.String())
		if err != nil || again != c {
			t.Errorf("round trip of %q: %+v, %v", spec, again, err)
		}
	}
}

// testFactoryFIFO adapts testPolicy to PolicyFactory for composed pools.
func testFactoryFIFO(int) Policy { return newTestPolicy() }

// FuzzParseComposition: -pool is the only way to choose a pool, so the
// parser takes arbitrary command-line text. It must never panic, and a
// spec it accepts must ask for a bounded pool — ShardCount and the
// write-back numbers within their limits — and render (String) to one it
// parses to the same Composition.
func FuzzParseComposition(f *testing.F) {
	for _, spec := range []string{
		// TestParseComposition's good and bad specs.
		"bare", "locked", "sharded", "sharded,shards=4", "async",
		"async,shards=8,wbworkers=2", " Async , Shards=2 ", "sharded,shards=0",
		"", "turbo", "bare,shards=2", "locked,shards=2", "sharded,wbworkers=2",
		"async,shards=8,wbworkers=2,wbqueue=256",
		"sharded,shards", "sharded,shards=-1", "sharded,shards=two", "async,wbunknown=1",
		// The pool specs of the six workloads in bench/workload.go.
		"sharded,shards=2", "async,shards=2", "async,shards=2,wbworkers=1",
		// Numbers that used to be accepted and allocated before any request.
		"async,shards=2000000000", "async,wbworkers=2000000000", "async,wbqueue=2000000000",
		"async,shards=1024,wbworkers=256", "sharded,shards=1025",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseComposition(spec)
		if err != nil {
			return
		}
		if n := c.ShardCount(); n < 1 || n > maxShards || c.WritebackWorkers > maxWritebackWorkers {
			t.Errorf("ParseComposition(%q) accepted %+v with %d shards", spec, c, n)
		}
		again, err := ParseComposition(c.String())
		if err != nil || again != c {
			t.Errorf("ParseComposition(%q) = %+v, but its String %q parses to %+v, %v", spec, c, c.String(), again, err)
		}
	})
}

func TestCompositionBuildTypes(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"bare", "*buffer.Engine"},
		{"locked", "*buffer.Shared"},
		{"sharded,shards=2", "*buffer.Shared"},
		{"async,shards=2", "*buffer.Shared"},
	}
	for _, c := range cases {
		comp, err := ParseComposition(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := comp.Build(newStore(t, 16), testFactoryFIFO, 8)
		if err != nil {
			t.Fatalf("Build(%q): %v", c.spec, err)
		}
		if got := reflect.TypeOf(pool).String(); got != c.want {
			t.Errorf("Build(%q) built %s, want %s", c.spec, got, c.want)
		}
		if cl, ok := pool.(interface{ Close() error }); ok {
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Defaulted shard count: one per CPU, clamped by capacity.
	comp := Composition{Layout: layoutSharded}
	pool, err := comp.Build(newStore(t, 16), testFactoryFIFO, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s := pool.Shards(); s < 1 || s > 4 {
		t.Errorf("defaulted shard count %d outside [1, capacity/2]", s)
	}
}

// TestClosedPoolStaysUsable is the Close contract of every shared
// layout: closing twice is fine, and a closed pool still serves. Once the
// write-back queue (if any) is closed, the dirty pages that Puts beyond
// the capacity evict are written synchronously, and a Flush leaves the
// newest version of every page in the store.
func TestClosedPoolStaysUsable(t *testing.T) {
	const capacity, pages = 4, 12
	for _, spec := range []string{"locked", "sharded,shards=2", "async,shards=2"} {
		t.Run(spec, func(t *testing.T) {
			fs, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "pages"))
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			for id := page.ID(1); id <= pages; id++ {
				if fs.Allocate() != id || fs.Write(testPage(id, 0)) != nil {
					t.Fatalf("cannot set up page %d", id)
				}
			}
			comp, err := ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			built, err := comp.Build(fs, testFactory, capacity)
			if err != nil {
				t.Fatal(err)
			}
			pool := built.(*Shared)
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			queued := pool.Writeback().Queued
			version := func(round int, id page.ID) uint64 { return uint64(round*100) + uint64(id) }
			for round := 1; round <= 2; round++ {
				for id := page.ID(1); id <= pages; id++ {
					if err := pool.Put(testPage(id, version(round, id)), AccessContext{}); err != nil {
						t.Fatalf("Put(%d) after Close: %v", id, err)
					}
				}
			}
			if err := pool.Flush(); err != nil {
				t.Fatalf("Flush after Close: %v", err)
			}
			if q := pool.Writeback().Queued; q != queued {
				t.Errorf("a closed queue accepted %d write-backs", q-queued)
			}
			for id := page.ID(1); id <= pages; id++ {
				p, err := fs.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := p.Entries[0].ObjID, version(2, id); got != want {
					t.Errorf("store holds version %d of page %d, want %d", got, id, want)
				}
			}
		})
	}
}

// matrixOp is one step of the mixed read/write reference workload the
// equivalence matrix replays.
type matrixOp struct {
	kind  byte // 'g'et, 'f'ix+unfix, 'p'ut, 'd'irty (get+markdirty)
	id    page.ID
	query uint64
}

// matrixWorkload builds a deterministic mixed workload over numPages
// pages: hot-set gets, pins, puts of new versions and dirtying — every
// request-path operation the engine owns.
func matrixWorkload(numPages, n int) []matrixOp {
	ops := make([]matrixOp, 0, n)
	h := uint64(12345)
	next := func(mod int) int {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		return int(h % uint64(mod))
	}
	for i := 0; i < n; i++ {
		var op matrixOp
		op.query = uint64(i / 7)
		if next(5) < 3 {
			op.id = page.ID(next(8) + 1) // hot subset
		} else {
			op.id = page.ID(next(numPages) + 1)
		}
		switch next(10) {
		case 0:
			op.kind = 'f'
		case 1:
			op.kind = 'p'
		case 2:
			op.kind = 'd'
		default:
			op.kind = 'g'
		}
		ops = append(ops, op)
	}
	return ops
}

// applyOp replays one workload step; Puts synthesize a page version the
// way the update experiments do.
func applyOp(t *testing.T, p Pool, op matrixOp) {
	t.Helper()
	ctx := AccessContext{QueryID: op.query}
	switch op.kind {
	case 'g':
		if _, err := p.Get(op.id, ctx); err != nil {
			t.Fatalf("get %d: %v", op.id, err)
		}
	case 'f':
		if _, err := p.Fix(op.id, ctx); err != nil {
			t.Fatalf("fix %d: %v", op.id, err)
		}
		if err := p.Unfix(op.id); err != nil {
			t.Fatalf("unfix %d: %v", op.id, err)
		}
	case 'p':
		np := page.New(op.id, page.TypeData, 0, 4)
		if err := p.Put(np, ctx); err != nil {
			t.Fatalf("put %d: %v", op.id, err)
		}
	case 'd':
		if _, err := p.Get(op.id, ctx); err != nil {
			t.Fatalf("get %d: %v", op.id, err)
		}
		if err := p.MarkDirty(op.id); err != nil {
			t.Fatalf("markdirty %d: %v", op.id, err)
		}
	}
}

// TestCompositionMatrixEquivalence is the composition acceptance test:
// every one-shard shared pool (locked, sharded at one shard, async at one
// shard) must replay a mixed single-threaded workload stat-for-stat,
// event-for-event and residency-identical to the bare engine, and the
// write-back queue must not
// change sharded routing either (sharded(N) ≡ async(N)). Determinism
// holds because the replay is single-threaded: no coalescing, no
// contention, write-back drained at the barriers.
func TestCompositionMatrixEquivalence(t *testing.T) {
	const numPages, capacity = 60, 12
	ops := matrixWorkload(numPages, 4000)

	type replay struct {
		stats    Stats
		resident []page.ID
		events   []obs.RequestEvent
	}
	run := func(t *testing.T, spec string) replay {
		t.Helper()
		comp, err := ParseComposition(spec)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := comp.Build(newStore(t, numPages), testFactoryFIFO, capacity)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingSink{}
		pool.SetSink(rec)
		for _, op := range ops {
			applyOp(t, pool, op)
		}
		st := pool.Stats()
		// One Eviction event per counted eviction, on every layout: the
		// engine reports them, so no layer and no policy can drop one.
		if uint64(len(rec.evictions)) != st.Evictions {
			t.Errorf("%s: %d eviction events for %d evictions", spec, len(rec.evictions), st.Evictions)
		}
		ids := residentIDs(pool)
		if cl, ok := pool.(interface{ Close() error }); ok {
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return replay{stats: st, resident: ids, events: rec.requests}
	}

	// The write-back queue has one documented divergence
	// on dirty workloads: a queue-served miss is flagged Coalesced and
	// re-admits the page still dirty, so WriteBacks counts one logical
	// decision per queue round-trip where the synchronous path wrote
	// once. normalize strips exactly those two fields; everything else
	// (requests, hits, misses, evictions, puts, residency, event order,
	// event Meta) must match bit-for-bit.
	normalize := func(r replay) replay {
		r.stats.WriteBacks = 0
		r.stats.Coalesced = 0
		evs := make([]obs.RequestEvent, len(r.events))
		for i, ev := range r.events {
			ev.Coalesced = false
			evs[i] = ev
		}
		r.events = evs
		return r
	}
	compare := func(t *testing.T, name string, got, want replay) {
		t.Helper()
		if got.stats != want.stats {
			t.Errorf("stats diverged:\n%s %+v\nwant %+v", name, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.resident, want.resident) {
			t.Errorf("resident set diverged:\n%s %v\nwant %v", name, got.resident, want.resident)
		}
		if len(got.events) != len(want.events) {
			t.Fatalf("event count diverged: %s %d, want %d", name, len(got.events), len(want.events))
		}
		for i := range got.events {
			if got.events[i] != want.events[i] {
				t.Fatalf("event %d diverged:\n%s %+v\nwant %+v", i, name, got.events[i], want.events[i])
			}
		}
	}

	ref := run(t, "bare")
	if ref.stats.Requests == 0 || ref.stats.Puts == 0 || ref.stats.Evictions == 0 {
		t.Fatalf("reference workload too tame: %+v", ref.stats)
	}
	for _, spec := range []string{"locked", "sharded,shards=1"} {
		t.Run(spec, func(t *testing.T) {
			compare(t, spec, run(t, spec), ref)
		})
	}
	t.Run("async,shards=1", func(t *testing.T) {
		compare(t, "async,shards=1", normalize(run(t, "async,shards=1")), normalize(ref))
	})

	t.Run("sharded(3)≡async(3)", func(t *testing.T) {
		sh := normalize(run(t, "sharded,shards=3"))
		as := normalize(run(t, "async,shards=3"))
		compare(t, "async,shards=3", as, sh)
	})

	// On a read-only workload the write-back queue has nothing to hold, so
	// the equivalence is unconditional — the full seed contract.
	readOnly := ops[:0:0]
	for _, op := range ops {
		if op.kind == 'p' || op.kind == 'd' {
			op.kind = 'g'
		}
		readOnly = append(readOnly, op)
	}
	ops = readOnly
	t.Run("read-only async,shards=1", func(t *testing.T) {
		compare(t, "async,shards=1", run(t, "async,shards=1"), run(t, "bare"))
	})
}

// residentIDs is the pool-wide resident set, sorted: every shard's,
// read through the door.
func residentIDs(p Pool) []page.ID {
	var ids []page.ID
	for i := 0; i < p.Shards(); i++ {
		p.View(i, func(e *Engine) { ids = append(ids, e.ResidentIDs()...) })
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// contains reports whether any shard holds the page.
func contains(p Pool, id page.ID) (ok bool) {
	for i := 0; i < p.Shards() && !ok; i++ {
		p.View(i, func(e *Engine) { ok = e.Contains(id) })
	}
	return ok
}

// TestCompositionConcurrentSmoke hammers every concurrency-safe
// composition from several goroutines; under -race this checks the
// shared pool's serialization (shard latches, latch-free hits, async
// flight table) with no request lost.
func TestCompositionConcurrentSmoke(t *testing.T) {
	const numPages, capacity, workers, perWorker = 60, 12, 4, 800
	// The last layout has a four-page write-back queue, so that dirty
	// evictions also take the full-queue fallback; no spec sets the
	// queue, so it is built by hand.
	const smallQueue = "async,shards=4,wbworkers=1,wbqueue=4"
	for _, spec := range []string{"locked", "sharded,shards=4", "async,shards=4", smallQueue} {
		t.Run(spec, func(t *testing.T) {
			store := newStore(t, numPages)
			var pool Pool
			comp, err := ParseComposition(spec)
			if spec == smallQueue {
				pool, err = newAsync(store, testFactoryFIFO, capacity, 4, 1, 4)
			} else if err == nil {
				pool, err = comp.Build(store, testFactoryFIFO, capacity)
			}
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					for _, op := range matrixWorkload(numPages, perWorker) {
						ctx := AccessContext{QueryID: uint64(w)<<32 | op.query}
						var err error
						switch op.kind {
						case 'p':
							err = pool.Put(page.New(op.id, page.TypeData, 0, 4), ctx)
						default:
							_, err = pool.Get(op.id, ctx)
						}
						if err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(w)
			}
			for w := 0; w < workers; w++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			st := pool.Stats()
			if st.Requests+st.Puts != workers*perWorker {
				t.Errorf("requests %d + puts %d != %d issued", st.Requests, st.Puts, workers*perWorker)
			}
			if st.Hits+st.Misses != st.Requests {
				t.Errorf("stats inconsistent: %+v", st)
			}
			if pool.Len() > capacity {
				t.Errorf("capacity exceeded: %d > %d", pool.Len(), capacity)
			}
			if cl, ok := pool.(interface{ Close() error }); ok {
				if err := cl.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestComposedHitPathZeroAllocs extends the engine's zero-alloc gate to
// every composition: with the default no-op sink, a buffer hit through
// the shared pool (shard hash, latch, async flight check) must not
// allocate — neither taking the latch nor, on the layouts that have one,
// served latch-free with the bookkeeping deferred (1000 runs of 4 hits
// fill and drain each shard's ring some thirty times).
func TestComposedHitPathZeroAllocs(t *testing.T) {
	for _, name := range []string{
		"bare", "locked", "sharded,shards=2", "async,shards=2",
		"locked/deferred", "sharded,shards=2/deferred", "async,shards=2/deferred",
	} {
		t.Run(name, func(t *testing.T) {
			spec, deferred := strings.CutSuffix(name, "/deferred")
			comp, err := ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := comp.Build(newStore(t, 8), testFactoryFIFO, 8)
			if err != nil {
				t.Fatal(err)
			}
			ctx := AccessContext{QueryID: 1}
			for id := page.ID(1); id <= 4; id++ { // warm: admit the pages
				if _, err := pool.Get(id, ctx); err != nil {
					t.Fatal(err)
				}
			}
			if deferred {
				forceDeferral(t, pool)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				for id := page.ID(1); id <= 4; id++ {
					if _, err := pool.Get(id, ctx); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("hit path allocates %.1f objects per 4 requests with the no-op sink, want 0", allocs)
			}
			if cl, ok := pool.(interface{ Close() error }); ok {
				if err := cl.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
