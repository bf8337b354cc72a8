package buffer

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/page"
	"repro/internal/storage"
)

// testFactory builds a fresh testPolicy per shard.
func testFactory(int) Policy { return newTestPolicy() }

// randomStats returns a Stats with a random value in every counter
// field. Reflection, not a literal: a field added to Stats is exercised
// here automatically, so the Add/merge property test below cannot
// silently skip it (as a hand-written literal once did for Coalesced).
func randomStats(rng *rand.Rand) Stats {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(rng.Uint64() >> 40)
	}
	return s
}

// TestStatsFieldSet pins the exact counter set of Stats. Extending
// Stats is fine — but this failing reminds you to extend Add, the
// JSONL/Counters exporters and the merge tests along with it.
func TestStatsFieldSet(t *testing.T) {
	want := []string{"Requests", "Hits", "Misses", "Evictions", "Puts", "WriteBacks", "Coalesced"}
	typ := reflect.TypeOf(Stats{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("Stats.%s is %s, want uint64 (Add sums every field)", f.Name, f.Type)
		}
		got = append(got, f.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Stats fields = %v, want %v — update Add and the observability exporters", got, want)
	}
}

// TestStatsAddProperty checks the algebra Shared.Stats relies on:
// Add is the componentwise sum, merging per-shard snapshots in any
// order yields the same total, and the merged value survives a JSON
// round-trip unchanged.
func TestStatsAddProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		parts := make([]Stats, 1+rng.Intn(8))
		for i := range parts {
			parts[i] = randomStats(rng)
		}

		var merged Stats
		for _, p := range parts {
			merged.Add(p)
		}
		var want Stats
		wv := reflect.ValueOf(&want).Elem()
		for _, p := range parts {
			pv := reflect.ValueOf(p)
			for i := 0; i < wv.NumField(); i++ {
				wv.Field(i).SetUint(wv.Field(i).Uint() + pv.Field(i).Uint())
			}
		}
		if merged != want {
			t.Fatalf("Add mismatch: got %+v, want %+v", merged, want)
		}

		// Merge order is irrelevant (commutative + associative).
		var reversed Stats
		for i := len(parts) - 1; i >= 0; i-- {
			reversed.Add(parts[i])
		}
		if reversed != merged {
			t.Fatalf("Add not order-independent: %+v vs %+v", reversed, merged)
		}

		data, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		var back Stats
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != merged {
			t.Fatalf("JSON round-trip changed stats: got %+v, want %+v", back, merged)
		}
	}
}

// TestRouterSingleShardEquivalence replays a recorded reference
// string through a shared pool of one shard and through a bare
// Engine with the same policy type: identical Stats and identical
// resident sets, access for access.
func TestRouterSingleShardEquivalence(t *testing.T) {
	const numPages, capacity = 40, 7
	rng := rand.New(rand.NewSource(11))

	s1 := newStore(t, numPages)
	s2 := newStore(t, numPages)
	m, err := NewEngine(s1, newTestPolicy(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newShared(s2, testFactory, capacity, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", sp.Shards())
	}

	for i := 0; i < 3000; i++ {
		id := page.ID(rng.Intn(numPages) + 1)
		ctx := AccessContext{QueryID: uint64(i / 5)}
		if _, err := m.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
		if m.Contains(id) != contains(sp, id) {
			t.Fatalf("residency diverged at access %d (page %d)", i, id)
		}
	}
	if m.Stats() != sp.Stats() {
		t.Fatalf("stats diverged:\nmanager %+v\nsharded %+v", m.Stats(), sp.Stats())
	}
	want := m.ResidentIDs()
	got := residentIDs(sp)
	wantSet := make(map[page.ID]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	if len(got) != len(want) {
		t.Fatalf("resident count: got %d, want %d", len(got), len(want))
	}
	for _, id := range got {
		if !wantSet[id] {
			t.Fatalf("resident sets differ: sharded holds %d, manager does not", id)
		}
	}

	// Clear is equivalent too: both cold again.
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Clear(); err != nil {
		t.Fatal(err)
	}
	if m.Stats() != sp.Stats() || sp.Len() != 0 {
		t.Fatalf("post-clear state diverged: %+v vs %+v (len %d)", m.Stats(), sp.Stats(), sp.Len())
	}
}

// TestRouterShardStatsMerge drives a multi-shard pool and checks
// that Stats() equals the merge of the per-shard snapshots and the
// whole-run expectations (every request accounted exactly once).
func TestRouterShardStatsMerge(t *testing.T) {
	const numPages, capacity, shards, ops = 60, 16, 4, 5000
	s := newStore(t, numPages)
	sp, err := newShared(s, testFactory, capacity, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", sp.Shards(), shards)
	}
	capSum := 0
	for i := 0; i < sp.Shards(); i++ {
		sp.View(i, func(e *Engine) {
			if e.capacity < 1 {
				t.Fatalf("shard %d has capacity %d", i, e.capacity)
			}
			capSum += e.capacity
		})
	}
	if capSum != capacity {
		t.Fatalf("capacity split: shards sum to %d, want %d", capSum, capacity)
	}

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < ops; i++ {
		id := page.ID(rng.Intn(numPages) + 1)
		if _, err := sp.Get(id, AccessContext{QueryID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var merged Stats
	lenSum := 0
	for i := 0; i < sp.Shards(); i++ {
		sp.View(i, func(e *Engine) {
			merged.Add(e.Stats())
			lenSum += e.Len()
		})
	}
	if total := sp.Stats(); total != merged {
		t.Fatalf("Stats() %+v != merged per-shard %+v", total, merged)
	}
	if merged.Requests != ops {
		t.Fatalf("requests = %d, want %d", merged.Requests, ops)
	}
	if merged.Hits+merged.Misses != merged.Requests {
		t.Fatalf("hits+misses != requests: %+v", merged)
	}
	if lenSum != sp.Len() || sp.Len() > capacity {
		t.Fatalf("Len() = %d, per-shard sum %d, capacity %d", sp.Len(), lenSum, capacity)
	}
	if got := s.Stats().Reads; got != merged.Misses {
		t.Fatalf("physical reads %d != misses %d", got, merged.Misses)
	}
	if n := len(residentIDs(sp)); n != sp.Len() {
		t.Fatalf("%d resident IDs != Len %d", n, sp.Len())
	}
}

// TestRouterWritePath exercises Put/MarkDirty/Flush/Fix/Unfix
// through the shard routing.
func TestRouterWritePath(t *testing.T) {
	const numPages = 12
	s := newStore(t, numPages)
	sp, err := newShared(s, testFactory, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{QueryID: 1}

	// Put a fresh version of every page (admitting without reads), then
	// flush: every put page is dirty and must be written back exactly
	// once — either when shard pressure evicts it or by the Flush.
	writesBefore := s.Stats().Writes
	for id := page.ID(1); id <= 6; id++ {
		p, err := s.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Put(p, ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := sp.Stats()
	if st.Puts != 6 {
		t.Fatalf("puts = %d, want 6", st.Puts)
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes - writesBefore; got != 6 {
		t.Fatalf("puts+flush wrote %d pages, want 6", got)
	}
	if st := sp.Stats(); st.WriteBacks != 6 {
		t.Fatalf("WriteBacks = %d, want 6", st.WriteBacks)
	}

	// Pin one page, evict pressure elsewhere leaves it resident.
	if _, err := sp.Fix(1, ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	if err := sp.Unfix(1); err != nil {
		t.Fatal(err)
	}
	if err := sp.Unfix(1); err == nil {
		t.Fatal("double unfix should fail")
	}
	if err := sp.MarkDirty(99); err == nil {
		t.Fatal("marking non-resident page dirty should fail")
	}
	if err := sp.Put(nil, ctx); err == nil {
		t.Fatal("put of nil page should fail")
	}
}

// TestRouterClamping covers the constructor edge cases: shard
// counts are clamped so every shard owns at least two frames, and
// invalid inputs error.
func TestRouterClamping(t *testing.T) {
	s := newStore(t, 4)
	sp, err := newShared(s, testFactory, 5, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 2 {
		t.Errorf("Shards() = %d, want 2 (clamped to capacity/2)", sp.Shards())
	}
	sp, err = newShared(s, testFactory, 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 1 {
		t.Errorf("Shards() = %d, want 1", sp.Shards())
	}
	if _, err := newShared(nil, testFactory, 4, 2, nil); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := newShared(s, nil, 4, 2, nil); err == nil {
		t.Error("nil factory should fail")
	}
	if _, err := newShared(s, testFactory, 0, 2, nil); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := newShared(s, func(int) Policy { return nil }, 4, 2, nil); err == nil {
		t.Error("nil-returning factory should fail")
	}
}

// TestRouterConcurrent hammers one pool from many goroutines; the
// race detector checks the locking, the final accounting checks that no
// request was lost or double-counted.
func TestRouterConcurrent(t *testing.T) {
	const numPages, capacity, shards, workers, perWorker = 64, 16, 4, 8, 2000
	s := newStore(t, numPages)
	sp, err := newShared(s, testFactory, capacity, shards, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < perWorker; i++ {
				id := page.ID(rng.Intn(numPages) + 1)
				if _, err := sp.Get(id, AccessContext{QueryID: uint64(w)<<32 | uint64(i)}); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
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

	st := sp.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Fatalf("hits+misses != requests: %+v", st)
	}
	if sp.Len() > capacity {
		t.Fatalf("capacity exceeded: %d > %d", sp.Len(), capacity)
	}
	if got := s.Stats().Reads; got != st.Misses {
		t.Fatalf("physical reads %d != misses %d", got, st.Misses)
	}
}

// failingStore wraps a store and fails reads of chosen pages — the
// fixture for the miss-path ordering regression test.
type failingStore struct {
	storage.Store
	failRead map[page.ID]bool
}

var errInjectedRead = errors.New("injected read failure")

func (f *failingStore) Read(id page.ID) (*page.Page, error) {
	if f.failRead[id] {
		return nil, errInjectedRead
	}
	return f.Store.Read(id)
}

// TestMissReadFailureKeepsResidentPages is the regression test for the
// miss-path ordering bug: the victim used to be evicted before
// store.Read, so a failed read discarded a good cached page and counted
// an eviction for a request that errored. Now the read happens first.
func TestMissReadFailureKeepsResidentPages(t *testing.T) {
	base := newStore(t, 5)
	fs := &failingStore{Store: base, failRead: map[page.ID]bool{4: true}}
	m, err := NewEngine(fs, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{QueryID: 1}

	// Fill the buffer.
	for id := page.ID(1); id <= 2; id++ {
		if _, err := m.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}

	// A miss whose physical read fails must not evict anything.
	if _, err := m.Get(4, ctx); !errors.Is(err, errInjectedRead) {
		t.Fatalf("err = %v, want injected read failure", err)
	}
	if !m.Contains(1) || !m.Contains(2) {
		t.Fatalf("failed read evicted a cached page; resident: %v", m.ResidentIDs())
	}
	st := m.Stats()
	if st.Evictions != 0 {
		t.Fatalf("failed read counted %d evictions, want 0", st.Evictions)
	}
	// The failed request still counts as a miss (it was not a hit), and
	// both cached pages still hit afterwards without physical reads.
	if st.Misses != 3 {
		t.Fatalf("misses = %d, want 3", st.Misses)
	}
	readsBefore := base.Stats().Reads
	for id := page.ID(1); id <= 2; id++ {
		if _, err := m.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := base.Stats().Reads; got != readsBefore {
		t.Fatalf("post-failure hits caused %d physical reads", got-readsBefore)
	}

	// The same contract holds through a sharded pool (the path every
	// concurrent consumer takes).
	fsp := &failingStore{Store: newStore(t, 5), failRead: map[page.ID]bool{4: true}}
	sp, err := newShared(fsp, testFactory, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := page.ID(1); id <= 2; id++ {
		if _, err := sp.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sp.Get(4, ctx); !errors.Is(err, errInjectedRead) {
		t.Fatalf("sharded err = %v, want injected read failure", err)
	}
	if sp.Stats().Evictions != 0 || !contains(sp, 1) || !contains(sp, 2) {
		t.Fatalf("sharded pool evicted on failed read: %+v, resident %v", sp.Stats(), residentIDs(sp))
	}
}

// TestRouterDeterministicRouting pins down that shard routing is a
// pure function of the page ID (replays and live execution agree on
// placement).
func TestRouterDeterministicRouting(t *testing.T) {
	s := newStore(t, 32)
	sp1, err := newShared(s, testFactory, 16, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := newShared(newStore(t, 32), testFactory, 16, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	for id := page.ID(1); id <= 32; id++ {
		if _, err := sp1.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := sp2.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	var a, b []int
	for i := 0; i < 4; i++ {
		sp1.View(i, func(e *Engine) { a = append(a, e.Len()) })
		sp2.View(i, func(e *Engine) { b = append(b, e.Len()) })
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("routing not deterministic: %v vs %v", a, b)
	}
}
