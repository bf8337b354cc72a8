package buffer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// LockedEngine is the locking layer: a mutex around one Engine, so that
// multiple goroutines can share one buffer (e.g. concurrent read-only
// queries against the same tree and buffer). The experiment harness
// instead runs one bare engine per goroutine — replays are independent —
// but applications embedding the library typically want a shared buffer.
//
// The layer serializes the engine; it trades concurrency for the strict
// accounting the policies rely on (policy callbacks observe a consistent
// buffer state). It owns the lock-instrumentation invariants: contention
// profiling and per-request lock-wait measurement happen here, never in
// the engine. The async layer's miss protocol drops exactly this mutex
// around its physical reads.
//
// One kind of request does not have to own the mutex: a Get of a
// resident page, once the mutex has been found held, that is, once a
// second goroutine has shown up. It reads the page from the engine's
// frame table, appends (page, query) to hits and returns; whoever
// acquires the mutex next first replays hits through the engine, so
// engine, policy and sink see every request, in request order, before
// any victim is chosen. See DESIGN.md §5c, "Latch-free hits".
type LockedEngine struct {
	mu sync.Mutex
	e  *Engine

	// contention, when set, profiles acquisitions of mu under e.shard;
	// traceWait additionally feeds the measured wait into the root span
	// of traced requests. Both are read before taking mu, hence atomic.
	contention atomic.Pointer[tracing.Contention]
	traceWait  atomic.Bool

	// deferLeft is how many more times hits may fill up before a Get goes
	// back to trying the mutex first; whoever finds the mutex held sets it
	// to deferRounds.
	deferLeft atomic.Int32
	hits      hitRing
}

const (
	hitRingHalf = 64 // records per half of a hitRing
	deferRounds = 16 // ring-fulls of deferral bought by one failed TryLock
	getTries    = 4  // looks a Get takes at ring and mutex before it queues
)

// hitRing holds the hits served without the mutex and not yet accounted,
// in two halves. Producers claim records of the active half with one
// atomic add and publish each by setting ready; the drainer — the mutex
// holder — flips cursor to the other half, which the previous drain left
// empty, and consumes what was claimed, so nobody waits for a drain.
type hitRing struct {
	// cursor is epoch<<32 | records claimed in halves[epoch&1], refused
	// claims included: a Get that finds the half full adds at most
	// getTries of those before it queues for the mutex, whose next holder
	// resets the count, so it stays far from the epoch bits. Every
	// deferred hit writes it; the pad keeps it off the cache line of the
	// fields before it, which every Get reads.
	_      [64]byte
	cursor atomic.Uint64
	halves [2][hitRingHalf]hitRecord
}

type hitRecord struct {
	pg    *page.Page
	query uint64
	ready atomic.Bool // set after pg and query, cleared by the drainer
}

// push appends a hit; false means the active half is full.
func (r *hitRing) push(p *page.Page, query uint64) bool {
	c := r.cursor.Add(1)
	if uint32(c) > hitRingHalf {
		return false
	}
	rec := &r.halves[c>>32&1][uint32(c)-1]
	rec.pg, rec.query = p, query
	rec.ready.Store(true)
	return true
}

// drain replays every hit claimed so far, in claim order; whoever
// acquires the mutex calls it first. A producer descheduled between
// claiming and publishing a record is waited for by yielding, so it gets
// to run even on one P.
func (l *LockedEngine) drain() {
	r := &l.hits
	c := r.cursor.Load()
	if uint32(c) == 0 {
		return
	}
	c = r.cursor.Swap((c>>32 + 1) << 32) // only the mutex holder moves the epoch
	if uint32(c) >= hitRingHalf {
		l.deferLeft.Add(-1)
	}
	half := &r.halves[c>>32&1]
	for i := range half[:min(uint32(c), hitRingHalf)] {
		rec := &half[i]
		for !rec.ready.Load() {
			runtime.Gosched()
		}
		p, ctx := rec.pg, AccessContext{QueryID: rec.query, engine: l.e}
		rec.pg = nil // do not keep an evicted page alive
		rec.ready.Store(false)
		l.replay(p, ctx)
		p.Release() // the record's reference
	}
}

// replay accounts one hit served without the mutex as Engine.request
// would have: latency sample (one in hitSample, timing the replay),
// clock, counters, event, OnHit, LastUse; no tracer samples it. If the
// request that held the mutex meanwhile evicted the page, the hit still
// counts and reports, but there is no frame for the policy to touch.
func (l *LockedEngine) replay(p *page.Page, ctx AccessContext) {
	e := l.e
	weight, start := e.startSample(true, nil)
	if f := e.frames.get(p.ID); f != nil {
		e.hit(f, ctx)
	} else {
		e.countHit(&p.Meta, ctx)
	}
	e.finish(nil, start, weight, true, false)
}

// lock acquires the mutex for anything that is not a request.
func (l *LockedEngine) lock() {
	if !l.mu.TryLock() {
		l.deferLeft.Store(deferRounds)
		l.mu.Lock()
	}
	l.drain()
}

// Lock wraps an engine with the locking layer. The engine must not be
// used directly afterwards — the wrapper owns its serialization.
func Lock(e *Engine) *LockedEngine {
	return &LockedEngine{e: e}
}

// tryLockRequest acquires the mutex for a request if it is free (for a
// contention profiler a wait of zero, and no clock reading). Finding it
// held starts or extends deferral.
func (l *LockedEngine) tryLockRequest() bool {
	if !l.mu.TryLock() {
		l.deferLeft.Store(deferRounds)
		return false
	}
	if c := l.contention.Load(); c != nil {
		c.Uncontended(l.e.shard)
	}
	if l.traceWait.Load() {
		l.e.pendingLockWait = 0
	}
	l.drain()
	return true
}

// lockRequest acquires the mutex for a request. With a contention
// profiler or tracer attached, an acquisition that has to queue is
// measured and its wait deposited with the engine (whose next traced
// root span attaches it).
func (l *LockedEngine) lockRequest() {
	if l.tryLockRequest() {
		return
	}
	c := l.contention.Load()
	traced := l.traceWait.Load()
	if c == nil && !traced {
		l.mu.Lock()
	} else {
		if c != nil {
			c.BeginWait(l.e.shard)
		}
		start := time.Now()
		l.mu.Lock()
		wait := time.Since(start).Nanoseconds()
		if c != nil {
			c.EndWait(l.e.shard, wait)
		}
		if traced {
			l.e.pendingLockWait = wait
		}
	}
	l.drain()
}

// Get implements Pool (and the Reader contract of rtree.Reader). It
// takes the mutex when it is free — all there is to it on an unshared
// pool — and while the layer defers serves a resident page from the
// frame table, its bookkeeping left in the ring. A full ring is drained
// by the next mutex holder: the request tries to be that one, and if the
// mutex is held, most likely by a request that is draining and has
// flipped the ring already, yields and looks again. For a miss, or a
// holder that takes more than a few yields, it queues.
func (l *LockedEngine) Get(id page.ID, ctx AccessContext) (*page.Page, error) {
	locked := false
	for try := 0; try < getTries && !locked; try++ {
		full := false
		if l.deferLeft.Load() > 0 {
			p := l.e.frames.page(id)
			if p == nil {
				break
			}
			if l.hits.push(p, ctx.QueryID) {
				return p, nil
			}
			p.Release()
			p.Release()
			full = true
		}
		if locked = l.tryLockRequest(); !locked && full {
			runtime.Gosched()
		}
	}
	if !locked {
		l.lockRequest()
	}
	p, err := l.e.Get(id, ctx)
	l.mu.Unlock() // not deferred: this is the hit path of every shared pool
	return p, err
}

// Put installs a new page version (see Engine.Put).
func (l *LockedEngine) Put(p *page.Page, ctx AccessContext) error {
	l.lockRequest()
	defer l.mu.Unlock()
	return l.e.Put(p, ctx)
}

// Fix pins a page (see Engine.Fix).
func (l *LockedEngine) Fix(id page.ID, ctx AccessContext) (*page.Page, error) {
	l.lockRequest()
	defer l.mu.Unlock()
	return l.e.Fix(id, ctx)
}

// Unfix releases a pin (see Engine.Unfix). Like the other request
// methods it routes through lockRequest, so contention profiling and
// traced root spans cover pin releases too.
func (l *LockedEngine) Unfix(id page.ID) error {
	l.lockRequest()
	defer l.mu.Unlock()
	return l.e.Unfix(id)
}

// MarkDirty flags a resident page for write-back (see Engine.MarkDirty),
// routed through lockRequest like every other request method.
func (l *LockedEngine) MarkDirty(id page.ID) error {
	l.lockRequest()
	defer l.mu.Unlock()
	return l.e.MarkDirty(id)
}

// Flush writes back all dirty pages (see Engine.Flush).
func (l *LockedEngine) Flush() error {
	l.lock()
	defer l.mu.Unlock()
	return l.e.Flush()
}

// Clear resets the buffer (see Engine.Clear).
func (l *LockedEngine) Clear() error {
	l.lock()
	defer l.mu.Unlock()
	return l.e.Clear()
}

// Stats returns a snapshot of the counters.
func (l *LockedEngine) Stats() Stats {
	l.lock()
	defer l.mu.Unlock()
	return l.e.Stats()
}

// Len returns the number of resident pages.
func (l *LockedEngine) Len() int {
	l.lock()
	defer l.mu.Unlock()
	return l.e.Len()
}

// Shards implements Pool: one engine.
func (l *LockedEngine) Shards() int { return 1 }

// View implements Pool: f runs on the engine under the mutex, after the
// hits served without it have been replayed.
func (l *LockedEngine) View(_ int, f func(*Engine)) {
	l.lock()
	defer l.mu.Unlock()
	f(l.e)
}

// SetSink attaches an observability sink (see Engine.SetSink). Events
// are emitted under the layer's mutex, so any sink works here — but a
// concurrency-safe aggregator like obs.Counters keeps critical sections
// short.
func (l *LockedEngine) SetSink(sink obs.Sink) {
	l.lock()
	defer l.mu.Unlock()
	l.e.SetSink(sink)
}

// SetTracer attaches a request-scoped span tracer to the wrapped engine
// (see Engine.SetTracer); the engine records under its shard index (0
// unless owned by a Router). While a tracer is attached, the
// mutex wait of a request that had to queue is measured and lands in its
// root span's LockWait (0 = the mutex was free). A nil tracer detaches.
func (l *LockedEngine) SetTracer(t *tracing.Tracer) {
	l.lock()
	l.e.SetTracer(t)
	l.mu.Unlock()
	l.traceWait.Store(t != nil)
}

// EnableContention attaches a lock-contention profiler; a standalone
// locked engine reports as shard 0 (the profiler should be built with
// ≥ 1 shard). Pass nil to stop profiling.
func (l *LockedEngine) EnableContention(c *tracing.Contention) {
	l.contention.Store(c)
}
