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
				p, ok := w.take(id, true)
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

// encodingStore holds every Write inside the encode: it encodes the page
// over and over, as a slow store reads it, until stop is set. entered is
// closed once a write is in there.
type encodingStore struct {
	storage.Store
	entered chan struct{}
	once    sync.Once
	stop    atomic.Bool
}

func (s *encodingStore) Write(p *page.Page) error {
	buf := make([]byte, storage.PageSize)
	s.once.Do(func() { close(s.entered) })
	for !s.stop.Load() {
		if err := storage.EncodePage(p, buf); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return s.Store.Write(p)
}

// TestWritebackTakeCopiesPageMidWrite: a miss on a page whose write-back
// is inside the store gets the queued version, and changes it, as an
// R*-tree mutation changes the nodes it reads before it puts them back.
// The writer is still encoding its page meanwhile, so the miss must get
// a copy: handing out the writer's own page object fails the identity
// check here, and under -race it is a reported race as well.
func TestWritebackTakeCopiesPageMidWrite(t *testing.T) {
	es := &encodingStore{Store: newStore(t, 8), entered: make(chan struct{})}
	sp, err := newAsync(es, testFactory, 2, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	const x = page.ID(1)
	queued := testPage(x, 1)
	if err := sp.Put(queued, ctx); err != nil {
		t.Fatal(err)
	}
	for id := page.ID(2); id <= 3; id++ { // FIFO: the second admission evicts x
		if _, err := sp.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	<-es.entered // x's write-back is inside the store
	p, err := sp.Get(x, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p == queued {
		t.Error("a miss mid-write was handed the page object the writer is encoding")
	}
	p.Entries[0].ObjID = 2
	if err := sp.Put(p, ctx); err != nil {
		t.Fatal(err)
	}
	es.stop.Store(true)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := es.Store.Read(x); err != nil || got.Entries[0].ObjID != 2 {
		t.Errorf("store holds %v, %v for page %d after Close, want version 2", got, err, x)
	}
	if queued.Entries[0].ObjID != 1 {
		t.Errorf("the queued version changed to %d under its writer", queued.Entries[0].ObjID)
	}
}

// recycleLog is a recycler that records the pages offered to it.
type recycleLog []*page.Page

func (l *recycleLog) Recycle(p *page.Page) { *l = append(*l, p) }

// TestDropRecyclesOnlyLeasedPages: a page without a lease — a clone, a
// node the tree built, a caller's page given to Put — can never be
// claimed, so offering it to the store would only cost the Read that
// draws it an allocation; a page the pool keeps is not offered either.
func TestDropRecyclesOnlyLeasedPages(t *testing.T) {
	var log recycleLog
	leased := page.Leased()
	leased.Unclaim(2)
	drop(&log, testPage(1, 1), nil)
	drop(&log, leased.Clone(), nil)
	drop(&log, leased, leased)
	drop(&log, leased, nil)
	if len(log) != 1 || log[0] != leased {
		t.Errorf("offered %d pages to the store, want only the leased one it may drop", len(log))
	}
}

// TestWritebackBurstReusesEntries: a burst of dirty evictions that piles
// up behind a slow writer, as a fast producer's does, leaves its entries
// among the spares, so the next burst as large allocates none.
func TestWritebackBurstReusesEntries(t *testing.T) {
	const burst = 200
	bw := &blockWriteStore{Store: newStore(t, burst), gate: make(chan struct{}, burst)}
	w := newWriteback(bw, 1, 256)
	entries := func() map[*wbEntry]bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		m := make(map[*wbEntry]bool, len(w.pending))
		for _, e := range w.pending {
			m[e] = true
		}
		return m
	}
	var first map[*wbEntry]bool
	for round := range 2 {
		for id := page.ID(1); id <= burst; id++ {
			if !w.enqueue(testPage(id, uint64(round)), 0) {
				t.Fatalf("burst %d: page %d refused", round+1, id)
			}
		}
		got := entries()
		if len(got) != burst {
			t.Fatalf("burst %d: %d pending entries, want %d", round+1, len(got), burst)
		}
		if round == 0 {
			first = got
		} else {
			fresh := 0
			for e := range got {
				if !first[e] {
					fresh++
				}
			}
			if fresh > 0 {
				t.Errorf("the second burst allocated %d of its %d entries", fresh, burst)
			}
		}
		for range burst { // one write per token
			bw.gate <- struct{}{}
		}
		if err := w.drain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}
