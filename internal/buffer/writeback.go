package buffer

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

// The write-back defaults, used for a Composition that leaves
// WritebackWorkers or WritebackQueue zero: the number of background
// writer goroutines, and the queue capacity in pages. When the queue is
// full, evictions fall back to a synchronous under-lock write — the
// backpressure path.
const (
	DefaultWritebackWorkers = 2
	DefaultWritebackQueue   = 1024
)

// writeback is the background write-back machinery of an async pool:
// dirty evicted pages are enqueued under the shard lock (never
// blocking — a full queue falls back to a synchronous write, which is
// the backpressure path) and written to the store by a fixed set of
// writer goroutines.
//
// Invariants:
//
//   - pending holds the newest unwritten version of every queued page;
//     a page is in pending from enqueue until its write completed, or
//     until take cancels it because the page was re-admitted — unless a
//     writer is mid-write on it: then the entry stays, emptied, until
//     that write returns.
//   - Re-enqueueing a page that is already pending replaces the entry
//     in place (gen bump) without a second queue slot: consecutive
//     write-backs of a hot dirty page coalesce into one physical write.
//   - Writes of one page never overlap and never reorder: an entry has
//     at most one writer at a time, and because the entry outlives
//     that writer's store call, a version enqueued meanwhile lands on
//     the same entry and is written by the same goroutine, afterwards.
//   - A miss for a pending page must be served from pending (take),
//     never from the store — the store still holds stale bytes.
//   - drain returns only when pending is empty — which, by the first
//     invariant, means no write is in flight either — so
//     Flush/Clear/Close get a true durability barrier.
//
// Write errors are sticky: the first one is kept and returned by
// drain/close (the erroring page is dropped after being counted, so a
// broken store cannot wedge the queue).
type writeback struct {
	store storage.Store
	// tracer, when non-nil, records one sampled root span per physical
	// background write (KindWriteback), so Perfetto timelines show the
	// write landing after the eviction that queued it.
	tracer atomic.Pointer[tracing.Tracer]

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[page.ID]*wbEntry
	closed  bool
	err     error
	queue   chan page.ID
	wg      sync.WaitGroup
	// n is len(pending), updated under mu beside every insert and delete.
	// At 0, take and coalesce skip mu: their callers hold the shard lock
	// that every enqueue of their page holds too (DESIGN.md §5e).
	n atomic.Int64

	workers   int
	queued    atomic.Uint64
	written   atomic.Uint64
	coalesced atomic.Uint64
	canceled  atomic.Uint64
	fallbacks atomic.Uint64
	errors    atomic.Uint64
}

// wbEntry is one pending page. page is its newest unwritten version,
// nil once take has canceled it while a writer was busy with it; gen is
// bumped whenever page changes, so that writer can tell, when its store
// call returns, whether there is newer work; writing marks the entry as
// owned by a writer. shard is the index of the shard that evicted the
// page (a page always hashes to the same one); its writeback spans are
// filed there.
type wbEntry struct {
	page    *page.Page
	gen     uint64
	writing bool
	shard   int
}

// newWriteback starts workers writer goroutines over a queue of
// queueCap page slots; values < 1 select the defaults.
func newWriteback(store storage.Store, workers, queueCap int) *writeback {
	if workers < 1 {
		workers = DefaultWritebackWorkers
	}
	if queueCap < 1 {
		queueCap = DefaultWritebackQueue
	}
	w := &writeback{
		store:   store,
		pending: make(map[page.ID]*wbEntry),
		queue:   make(chan page.ID, queueCap),
		workers: workers,
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.worker()
	}
	return w
}

// enqueue hands over a dirty page evicted by the given shard and reports
// whether the queue accepted it. Called under that shard's lock, so it
// must never block: a full or closed queue returns false and the caller
// writes synchronously (backpressure).
func (w *writeback) enqueue(p *page.Page, shard int) bool {
	w.mu.Lock()
	if w.replacePending(p) {
		// This comes before the closed check: while an older version is
		// mid-write, a synchronous write by the caller could land first.
		w.mu.Unlock()
		return true
	}
	if w.closed {
		w.mu.Unlock()
		return false
	}
	select {
	case w.queue <- p.ID:
	default:
		w.mu.Unlock()
		w.fallbacks.Add(1)
		return false
	}
	w.pending[p.ID] = &wbEntry{page: p, gen: 1, shard: shard}
	w.n.Add(1)
	w.mu.Unlock()
	w.queued.Add(1)
	return true
}

// coalesce hands over a dirty page only if its page already has a
// pending entry — for a resident page that can only be one a writer is
// busy with — and reports whether it did. It never takes a queue slot:
// with no write of the page in flight the caller writes synchronously.
func (w *writeback) coalesce(p *page.Page) bool {
	if w.n.Load() == 0 {
		return false
	}
	w.mu.Lock()
	ok := w.replacePending(p)
	w.mu.Unlock()
	return ok
}

// replacePending makes p the newest unwritten version of its page if
// the page is already queued (or mid-write): the entry is replaced in
// place, and the writer re-checks the generation after its write and
// redoes it. The caller holds w.mu.
func (w *writeback) replacePending(p *page.Page) bool {
	e, ok := w.pending[p.ID]
	if ok {
		e.page = p
		e.gen++
		w.coalesced.Add(1)
	}
	return ok
}

// take removes and returns the pending version of id, if any — the
// read-your-writes path of the miss protocol: a miss on a page whose
// write-back has not landed yet must get the queued bytes, not the
// stale store, and re-admitting the page as dirty cancels the queued
// write (the next eviction or flush writes the newer version). A write
// already in progress cannot be canceled: its entry is emptied and left
// in place, so that the page's next enqueue waits its turn behind it.
func (w *writeback) take(id page.ID) (*page.Page, bool) {
	if w.n.Load() == 0 {
		return nil, false
	}
	w.mu.Lock()
	e, ok := w.pending[id]
	if !ok || e.page == nil {
		w.mu.Unlock()
		return nil, false
	}
	p := e.page
	if e.writing {
		e.page = nil
		e.gen++
	} else {
		w.remove(id)
	}
	w.mu.Unlock()
	w.canceled.Add(1)
	return p, true
}

// worker drains the queue until close.
func (w *writeback) worker() {
	defer w.wg.Done()
	for id := range w.queue {
		w.write(id)
	}
}

// write performs the physical write for one dequeued page ID, redoing
// it as long as newer versions keep arriving mid-write.
func (w *writeback) write(id page.ID) {
	w.mu.Lock()
	e, ok := w.pending[id]
	if !ok || e.writing {
		// Canceled by take between enqueue and dequeue; or canceled and
		// enqueued again under a slot of its own, which another worker
		// has claimed: that worker writes every version, this slot is
		// spent.
		w.mu.Unlock()
		return
	}
	e.writing = true
	// e.page is nil when take emptied the entry during the last write
	// and nothing was enqueued since.
	for e.page != nil {
		p, gen := e.page, e.gen
		w.mu.Unlock()

		a := w.tracer.Load().StartRequest(tracing.KindWriteback, p.ID, 0, e.shard, 0)
		err := writePage(w.store, a, p)
		a.Finish(false, err != nil)
		if err != nil {
			w.errors.Add(1)
		} else {
			w.written.Add(1)
		}

		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = err
		}
		if e.gen == gen {
			break
		}
	}
	w.remove(id)
	w.mu.Unlock()
}

// remove deletes id's entry, under w.mu, and wakes drain once none is left.
func (w *writeback) remove(id page.ID) {
	delete(w.pending, id)
	if w.n.Add(-1) == 0 {
		w.cond.Broadcast()
	}
}

// drain blocks until every queued page has been written (or canceled by
// take) and no write is in flight, then returns the sticky error.
// Must not be called while holding a shard lock.
func (w *writeback) drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.pending) > 0 {
		w.cond.Wait()
	}
	return w.err
}

// resetErr clears the sticky write error (Pool.Clear zeroes all
// accounting, including this).
func (w *writeback) resetErr() {
	w.mu.Lock()
	w.err = nil
	w.mu.Unlock()
}

// close drains the queue, stops the writer goroutines and returns the
// sticky error. After close, enqueue returns false, so the owning pool
// degrades to synchronous write-back instead of breaking.
func (w *writeback) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.err
	}
	w.closed = true
	w.mu.Unlock()

	err := w.drain()
	close(w.queue)
	w.wg.Wait()
	return err
}

// WritebackMetrics is a snapshot of the write-back queue counters, for
// gauges and tests. Counter fields are cumulative over the queue's
// lifetime (they survive Clear, like the contention profiler).
type WritebackMetrics struct {
	// Workers is the number of background writer goroutines.
	Workers int
	// QueueCap and Depth are the queue capacity and its current fill.
	QueueCap, Depth int
	// Pending is the number of pages currently awaiting (or undergoing)
	// their physical write.
	Pending int
	// Queued counts pages accepted into the queue; Written counts
	// completed physical writes; Coalesced counts re-enqueues that
	// replaced a pending entry in place; Canceled counts queued writes
	// canceled because the page was re-admitted dirty; Fallbacks counts
	// evictions written synchronously because the queue was full;
	// Errors counts failed physical writes.
	Queued, Written, Coalesced, Canceled, Fallbacks, Errors uint64
}

// metrics returns a point-in-time snapshot of the queue counters.
func (w *writeback) metrics() WritebackMetrics {
	return WritebackMetrics{
		Workers:   w.workers,
		QueueCap:  cap(w.queue),
		Depth:     len(w.queue),
		Pending:   int(w.n.Load()),
		Queued:    w.queued.Load(),
		Written:   w.written.Load(),
		Coalesced: w.coalesced.Load(),
		Canceled:  w.canceled.Load(),
		Fallbacks: w.fallbacks.Load(),
		Errors:    w.errors.Load(),
	}
}
