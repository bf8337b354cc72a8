package buffer

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// ForceDeferral is forceDeferral for the external tests, which build
// R*-trees and so cannot live in this package.
func ForceDeferral(t testing.TB, pool Pool) { forceDeferral(t, pool) }

// NewTestStore is newStore for the external tests.
func NewTestStore(t testing.TB, n int) *storage.MemStore { return newStore(t, n) }

// EventSinks returns where e sends its events: the Request events and the
// Eviction and Adapt events, nil for a kind it builds no event of.
func EventSinks(e *Engine) (requests, decisions obs.Sink) { return e.sink, e.decisions }

// lockEngine is the locked layout around an engine the test built and
// may still read directly.
func lockEngine(e *Engine) *Shared {
	e.frames.publish()
	return &Shared{shards: []*shard{{e: e}}}
}

// newAsync builds the async layout as Composition.Build does, from
// explicit shard and write-back numbers.
func newAsync(store storage.Store, factory PolicyFactory, capacity, shards, wbWorkers, wbQueue int) (*Shared, error) {
	return newShared(store, factory, capacity, shards, newWriteback(store, wbWorkers, wbQueue))
}

// Kept calls f on every page pool keeps: each shard's resident pages
// under the shard's latch, then the pages queued for write-back under
// the queue's mutex, so that the pool cannot let go of one meanwhile.
func Kept(pool Pool, f func(p *page.Page, queued bool)) {
	for i := range pool.Shards() {
		pool.View(i, func(e *Engine) {
			for i := range e.frames.slots {
				if fr := e.frames.slots[i].f; fr != nil {
					f(fr.Page, false)
				}
			}
		})
	}
	if a, ok := pool.(*Shared); ok && a.wb != nil {
		a.wb.mu.Lock()
		defer a.wb.mu.Unlock()
		for _, en := range a.wb.pending {
			if en.page != nil {
				f(en.page, true)
			}
		}
	}
}
