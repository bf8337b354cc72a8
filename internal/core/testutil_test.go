package core_test

import (
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// rect abbreviates geom.NewRect in tests.
func rect(x1, y1, x2, y2 float64) geom.Rect {
	return geom.NewRect(x1, y1, x2, y2)
}

// pageSpec describes a test page to synthesize.
type pageSpec struct {
	typ   page.Type
	level int
	area  float64 // page MBR area (single square entry)
}

// dataPage returns a spec for a data page of the given MBR area.
func dataPage(area float64) pageSpec {
	return pageSpec{typ: page.TypeData, level: 0, area: area}
}

// buildStore writes one page per spec; page IDs are 1..len(specs) in spec
// order.
func buildStore(t *testing.T, specs []pageSpec) *storage.MemStore {
	t.Helper()
	s := storage.NewMemStore()
	for _, spec := range specs {
		id := s.Allocate()
		p := page.New(id, spec.typ, spec.level, 1)
		side := math.Sqrt(spec.area)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, side, side), ObjID: uint64(id)})
		p.Recompute()
		if err := s.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	return s
}

// access is one step of a scripted request sequence.
type access struct {
	id    page.ID
	query uint64
}

// q tags a page request with a query ID.
func q(id page.ID, query uint64) access { return access{id: id, query: query} }

// run replays the accesses against a fresh manager and returns the page
// IDs that missed, in order.
func run(t *testing.T, s storage.Store, pol buffer.Policy, capacity int, seq []access) []page.ID {
	t.Helper()
	m, err := buffer.NewEngine(s, pol, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return runOn(t, m, seq)
}

// runOn replays the accesses on an existing manager, returning miss IDs.
func runOn(t *testing.T, m *buffer.Engine, seq []access) []page.ID {
	t.Helper()
	var misses []page.ID
	for _, a := range seq {
		before := m.Stats().Misses
		if _, err := m.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
			t.Fatalf("get %d: %v", a.id, err)
		}
		if m.Stats().Misses > before {
			misses = append(misses, a.id)
		}
	}
	return misses
}

// idsEqual compares two ID slices.
func idsEqual(a, b []page.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seqOf builds an access sequence where every request is its own query.
func seqOf(ids ...page.ID) []access {
	seq := make([]access, len(ids))
	for i, id := range ids {
		seq[i] = access{id: id, query: uint64(i + 1)}
	}
	return seq
}

// resident returns whether every given ID is resident in m.
func resident(m *buffer.Engine, ids ...page.ID) bool {
	for _, id := range ids {
		if !m.Contains(id) {
			return false
		}
	}
	return true
}

// poolContains, poolResidentIDs and shardStats read a composition of any
// layout through its door, shard by shard under each one's latch.
func poolContains(p buffer.Pool, id page.ID) (ok bool) {
	for i := 0; i < p.Shards() && !ok; i++ {
		p.View(i, func(e *buffer.Engine) { ok = e.Contains(id) })
	}
	return ok
}

func poolResidentIDs(p buffer.Pool) (ids []page.ID) {
	for i := 0; i < p.Shards(); i++ {
		p.View(i, func(e *buffer.Engine) { ids = append(ids, e.ResidentIDs()...) })
	}
	return ids
}

func shardStats(p buffer.Pool, i int) (st buffer.Stats) {
	p.View(i, func(e *buffer.Engine) { st = e.Stats() })
	return st
}

// mustEngine builds a manager or fails the test.
func mustEngine(t *testing.T, s storage.Store, pol buffer.Policy, capacity int) *buffer.Engine {
	t.Helper()
	m, err := buffer.NewEngine(s, pol, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// uniformPages returns n data-page specs all with the same area.
func uniformPages(n int, area float64) []pageSpec {
	specs := make([]pageSpec, n)
	for i := range specs {
		specs[i] = dataPage(area)
	}
	return specs
}

// factoryNames returns the names of the standard factories, for
// cross-policy conformance tests.
func allStandardPolicies(capacity int) []buffer.Policy {
	var pols []buffer.Policy
	for _, f := range core.StandardFactories() {
		pols = append(pols, f.New(capacity))
	}
	pols = append(pols, core.NewFIFO())
	return pols
}

// pageID converts for benchmark helpers.
func pageID(i int) page.ID { return page.ID(i) }

// buildStoreB is buildStore for benchmarks.
func buildStoreB(b *testing.B, specs []pageSpec) *storage.MemStore {
	b.Helper()
	s := storage.NewMemStore()
	for _, spec := range specs {
		id := s.Allocate()
		p := page.New(id, spec.typ, spec.level, 1)
		side := math.Sqrt(spec.area)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, side, side), ObjID: uint64(id)})
		p.Recompute()
		if err := s.Write(p); err != nil {
			b.Fatal(err)
		}
	}
	s.ResetStats()
	return s
}
