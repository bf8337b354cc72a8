package buffer

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/page"
	"repro/internal/storage"
)

// landedStore records, per page, the version (the ObjID of its entry) of
// the last Write that returned.
type landedStore struct {
	storage.Store
	mu     sync.Mutex
	landed map[page.ID]uint64
}

func (s *landedStore) Write(p *page.Page) error {
	runtime.Gosched() // keep writes in flight while the shards enqueue
	err := s.Store.Write(p)
	s.mu.Lock()
	s.landed[p.ID] = p.Entries[0].ObjID
	s.mu.Unlock()
	return err
}

func (s *landedStore) version(id page.ID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.landed[id]
}

// TestWritebackPendingCount hammers enqueue and take on two shards while
// two writers complete, and checks the count that lets take and coalesce
// skip the mutex on an empty queue. Each shard goroutine owns its pages,
// as a shard's lock does. A take that finds nothing must mean that the
// version the shard last handed over has landed in the store — if the
// count read 0 while that page was pending, the shard would re-read stale
// bytes. And whenever the mutex is held, the count must equal the map.
func TestWritebackPendingCount(t *testing.T) {
	const perShard = 3
	st := &landedStore{Store: newStore(t, 2*perShard), landed: map[page.ID]uint64{}}
	w := newWriteback(st, 2, 4)

	var stop atomic.Bool
	var bad []string
	var badMu sync.Mutex
	fail := func(format string, args ...any) {
		badMu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		badMu.Unlock()
		stop.Store(true)
	}

	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for !stop.Load() {
			w.mu.Lock()
			n, l := w.n.Load(), len(w.pending)
			w.mu.Unlock()
			if n != int64(l) {
				fail("count %d with %d pending entries", n, l)
			}
		}
	}()

	var shards sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		shards.Add(1)
		go func(shard int) {
			defer shards.Done()
			rng := rand.New(rand.NewSource(int64(shard)))
			owed := map[page.ID]uint64{} // handed over, not taken back
			for i := 1; i <= 20000 && !stop.Load(); i++ {
				id := page.ID(shard*perShard + rng.Intn(perShard) + 1)
				if rng.Intn(2) == 0 {
					v := uint64(i)<<1 | uint64(shard)
					if !w.enqueue(testPage(id, v), shard) {
						if err := st.Write(testPage(id, v)); err != nil {
							fail("write: %v", err)
						}
					}
					owed[id] = v
					continue
				}
				p, ok := w.take(id)
				switch v, isOwed := owed[id]; {
				case ok && p.Entries[0].ObjID != v:
					fail("page %d: took version %d back, last handed over %d", id, p.Entries[0].ObjID, v)
				case ok:
					delete(owed, id)
				case isOwed && st.version(id) != v:
					fail("page %d: take found nothing, but the store has version %d of %d", id, st.version(id), v)
				}
			}
		}(shard)
	}
	shards.Wait()
	stop.Store(true)
	<-checked
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
	if n := w.metrics().Pending; n != 0 {
		t.Errorf("Pending = %d after close, want 0", n)
	}
}
