package buffer

import (
	"container/list"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/page"
	"repro/internal/storage"
)

// refModel is an executable specification of an LRU buffer: a plain list
// of resident IDs, most recent first.
type refModel struct {
	capacity int
	order    []page.ID
}

// access simulates one request, returning whether it hit.
func (m *refModel) access(id page.ID) bool {
	for i, r := range m.order {
		if r == id {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = id
			return true
		}
	}
	m.order = append([]page.ID{id}, m.order...)
	if len(m.order) > m.capacity {
		m.order = m.order[:m.capacity]
	}
	return false
}

// lruPolicy is a minimal LRU implementation local to this test (the real
// policies live in package core, which buffer cannot import).
type lruPolicy struct {
	order *list.List
	elems map[*Frame]*list.Element
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{order: list.New(), elems: make(map[*Frame]*list.Element)}
}

func (p *lruPolicy) Name() string { return "lru" }
func (p *lruPolicy) OnAdmit(f *Frame, now uint64, ctx AccessContext) {
	p.elems[f] = p.order.PushFront(f)
}
func (p *lruPolicy) OnHit(f *Frame, now uint64, ctx AccessContext) {
	p.order.MoveToFront(p.elems[f])
}
func (p *lruPolicy) Victim(ctx AccessContext) Choice {
	for e := p.order.Back(); e != nil; e = e.Prev() {
		if f := e.Value.(*Frame); !f.Pinned() {
			return Choice{Frame: f}
		}
	}
	return Choice{}
}
func (p *lruPolicy) OnEvict(f *Frame) {
	p.order.Remove(p.elems[f])
	delete(p.elems, f)
}
func (p *lruPolicy) Reset() {
	p.order.Init()
	clear(p.elems)
}

// workload is a quick-generatable access sequence over a small ID space.
type workload struct {
	Capacity uint8
	IDs      []uint8
}

// Generate implements quick.Generator.
func (workload) Generate(r *rand.Rand, size int) reflect.Value {
	w := workload{
		Capacity: uint8(r.Intn(12) + 1),
		IDs:      make([]uint8, r.Intn(400)),
	}
	for i := range w.IDs {
		w.IDs[i] = uint8(r.Intn(24))
	}
	return reflect.ValueOf(w)
}

// TestQuickEngineMatchesLRUModel: for arbitrary access sequences, the
// manager with an LRU policy produces exactly the hit/miss sequence and
// final residency of the executable LRU specification.
func TestQuickEngineMatchesLRUModel(t *testing.T) {
	f := func(w workload) bool {
		store := newQuickStore(24)
		m, err := NewEngine(store, newLRUPolicy(), int(w.Capacity))
		if err != nil {
			return false
		}
		model := &refModel{capacity: int(w.Capacity)}
		for _, raw := range w.IDs {
			id := page.ID(raw%24) + 1
			wantHit := model.access(id)
			before := m.Stats().Hits
			if _, err := m.Get(id, AccessContext{}); err != nil {
				return false
			}
			gotHit := m.Stats().Hits > before
			if gotHit != wantHit {
				return false
			}
		}
		// Final resident sets match.
		if m.Len() != len(model.order) {
			return false
		}
		for _, id := range model.order {
			if !m.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// newQuickStore builds a store with n trivial pages.
func newQuickStore(n int) *quickStoreT {
	return &quickStoreT{n: n}
}

// quickStoreT is a minimal synthetic store: page i exists for 1 ≤ i ≤ n.
type quickStoreT struct {
	n     int
	reads uint64
}

func (s *quickStoreT) Allocate() page.ID { s.n++; return page.ID(s.n) }
func (s *quickStoreT) Write(p *page.Page) error {
	return nil
}
func (s *quickStoreT) Read(id page.ID) (*page.Page, error) {
	s.reads++
	p := page.New(id, page.TypeData, 0, 0)
	p.Recompute()
	return p, nil
}
func (s *quickStoreT) NumPages() int        { return s.n }
func (s *quickStoreT) Stats() storage.Stats { return storage.Stats{Reads: s.reads} }
func (s *quickStoreT) ResetStats()          { s.reads = 0 }
func (s *quickStoreT) Close() error         { return nil }
