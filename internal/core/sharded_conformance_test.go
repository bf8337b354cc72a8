package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/storage"
)

// shardableFactories returns every standard policy factory plus FIFO, as
// factories (a shared pool needs one instance per shard).
func shardableFactories() []core.Factory {
	fs := core.StandardFactories()
	fs = append(fs, core.Factory{Name: "FIFO", New: func(int) buffer.Policy { return core.NewFIFO() }})
	return fs
}

// conformanceSeq builds the mixed-locality reference string shared by the
// composition conformance tests.
func conformanceSeq(numPages, n int, seed int64) []access {
	rng := rand.New(rand.NewSource(seed))
	var seq []access
	queryID := uint64(0)
	for i := 0; i < n; i++ {
		if i%7 == 0 {
			queryID++
		}
		var id page.ID
		switch {
		case i%5 < 3: // hot subset
			id = page.ID(rng.Intn(12) + 1)
		default:
			id = page.ID(rng.Intn(numPages) + 1)
		}
		seq = append(seq, access{id: id, query: queryID})
	}
	return seq
}

// conformanceSpecs mirrors the page mix of TestPolicyConformance.
func conformanceSpecs(numPages int, seed int64) []pageSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]pageSpec, numPages)
	for i := range specs {
		typ := page.TypeData
		level := 0
		switch i % 10 {
		case 0:
			typ, level = page.TypeDirectory, 1+i%3
		case 1:
			typ = page.TypeObject
		}
		specs[i] = pageSpec{typ: typ, level: level, area: float64(rng.Intn(500) + 1)}
	}
	return specs
}

// buildComposition parses the spec and builds the pool over a fresh
// store, failing the test on any error.
func buildComposition(t *testing.T, spec string, s *storage.MemStore, f core.Factory, capacity int) buffer.Pool {
	t.Helper()
	comp, err := buffer.ParseComposition(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := comp.Build(s, f.New, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// closePool closes a shared pool, which stops an async pool's write-back
// workers; a bare engine has no Close.
func closePool(t *testing.T, p buffer.Pool) {
	t.Helper()
	if c, ok := p.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterConformance runs every standard policy inside the
// multi-shard compositions — sharded and async — against the invariants
// of the single-manager conformance suite: capacity respected, resident
// pages always hit, hits+misses = requests, physical reads = misses
// (single-threaded and read-only, so the async pool coalesces nothing),
// Clear cold-starts.
func TestRouterConformance(t *testing.T) {
	const numPages = 80
	specs := conformanceSpecs(numPages, 31)
	seq := conformanceSeq(numPages, 4000, 31)

	for _, spec := range []string{
		"sharded,shards=2", "sharded,shards=4",
		"async,shards=2", "async,shards=4",
	} {
		for _, f := range shardableFactories() {
			f := f
			capacity := 16
			t.Run(f.Name+"/"+spec, func(t *testing.T) {
				s := buildStore(t, specs)
				p := buildComposition(t, spec, s, f, capacity)
				defer closePool(t, p)
				for _, a := range seq {
					wasResident := poolContains(p, a.id)
					hitsBefore := p.Stats().Hits
					if _, err := p.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
						t.Fatalf("get %d: %v", a.id, err)
					}
					if wasResident && p.Stats().Hits != hitsBefore+1 {
						t.Fatalf("resident page %d did not hit", a.id)
					}
					if !wasResident && p.Stats().Hits != hitsBefore {
						t.Fatalf("non-resident page %d counted as hit", a.id)
					}
					if p.Len() > capacity {
						t.Fatalf("capacity exceeded: %d > %d", p.Len(), capacity)
					}
				}
				st := p.Stats()
				if st.Hits+st.Misses != st.Requests {
					t.Errorf("stats inconsistent: %+v", st)
				}
				if got := s.Stats().Reads; got != st.Misses {
					t.Errorf("physical reads %d != misses %d", got, st.Misses)
				}
				if st.Requests != uint64(len(seq)) {
					t.Errorf("requests = %d, want %d", st.Requests, len(seq))
				}

				// After Clear, the first access misses again.
				if err := p.Clear(); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Get(1, buffer.AccessContext{QueryID: 1}); err != nil {
					t.Fatal(err)
				}
				if p.Stats().Misses != 1 {
					t.Error("post-clear access should cold-miss")
				}
			})
		}
	}
}

// TestRouterSingleShardMatchesEngine replays the conformance
// reference string through every composition that must route like one
// big buffer — locked, single-shard sharded, single-shard async — and a
// bare engine, for every standard policy: the stats and the resident
// set must be identical access for access. This is the
// behavioural-equivalence guarantee the layer stack documents.
func TestRouterSingleShardMatchesEngine(t *testing.T) {
	const numPages, capacity = 80, 16
	specs := conformanceSpecs(numPages, 31)
	seq := conformanceSeq(numPages, 3000, 37)

	for _, spec := range []string{"locked", "sharded,shards=1", "async,shards=1"} {
		for _, f := range shardableFactories() {
			f := f
			t.Run(f.Name+"/"+spec, func(t *testing.T) {
				sm := buildStore(t, specs)
				m := mustEngine(t, sm, f.New(capacity), capacity)
				sp := buildComposition(t, spec, buildStore(t, specs), f, capacity)
				defer closePool(t, sp)
				for i, a := range seq {
					ctx := buffer.AccessContext{QueryID: a.query}
					if _, err := m.Get(a.id, ctx); err != nil {
						t.Fatal(err)
					}
					if _, err := sp.Get(a.id, ctx); err != nil {
						t.Fatal(err)
					}
					if m.Contains(a.id) != poolContains(sp, a.id) {
						t.Fatalf("residency diverged at access %d (page %d)", i, a.id)
					}
					if m.Stats() != sp.Stats() {
						t.Fatalf("stats diverged at access %d:\nengine      %+v\ncomposition %+v",
							i, m.Stats(), sp.Stats())
					}
				}
				wantSet := make(map[page.ID]bool)
				for _, id := range m.ResidentIDs() {
					wantSet[id] = true
				}
				got := poolResidentIDs(sp)
				if len(got) != len(wantSet) {
					t.Fatalf("resident count: composition %d, engine %d", len(got), len(wantSet))
				}
				for _, id := range got {
					if !wantSet[id] {
						t.Fatalf("resident sets differ on page %d", id)
					}
				}
			})
		}
	}
}

// TestRouterConcurrentPolicies drives every standard policy inside
// the concurrent compositions from several goroutines at once. Run under
// -race this checks that the shard latch fully serializes policy
// state per shard; the final accounting checks no request was lost.
func TestRouterConcurrentPolicies(t *testing.T) {
	const numPages, capacity, workers, perWorker = 80, 16, 4, 1500
	specs := conformanceSpecs(numPages, 31)

	for _, spec := range []string{"locked", "sharded,shards=4", "async,shards=4"} {
		for _, f := range shardableFactories() {
			f := f
			t.Run(f.Name+"/"+spec, func(t *testing.T) {
				s := buildStore(t, specs)
				p := buildComposition(t, spec, s, f, capacity)
				defer closePool(t, p)
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						seq := conformanceSeq(numPages, perWorker, int64(w)+100)
						for _, a := range seq {
							// Distinct query-ID ranges per worker keep intra-query
							// correlation (LRU-K) meaningful under concurrency.
							ctx := buffer.AccessContext{QueryID: uint64(w)<<32 | a.query}
							if _, err := p.Get(a.id, ctx); err != nil {
								errs <- err
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				st := p.Stats()
				if st.Requests != workers*perWorker {
					t.Fatalf("requests = %d, want %d", st.Requests, workers*perWorker)
				}
				if st.Hits+st.Misses != st.Requests {
					t.Fatalf("stats inconsistent: %+v", st)
				}
				if p.Len() > capacity {
					t.Fatalf("capacity exceeded: %d > %d", p.Len(), capacity)
				}
			})
		}
	}
}
