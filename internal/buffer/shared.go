package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

// Shared is a buffer any number of goroutines share: a partitioned pool
// whose page IDs hash to shards, each an Engine with its own policy
// instance behind its own latch. A single-latch pool is the one-shard
// case (the locked layout); the async layout adds one bounded write-back
// queue, with which misses read outside the shard latch
// (singleflight-coalesced) and dirty victims are written in the
// background. See DESIGN.md §5c.
//
// Semantics relative to one big engine:
//
//   - Capacity is split across the shards (as evenly as page counts
//     allow), and each policy instance is constructed by the
//     PolicyFactory with its shard's capacity, so capacity-relative
//     parameters (SLRU candidate sets, ASB overflow sizing) scale down
//     per shard. ASB's c adapts independently per shard, each shard
//     seeing an unbiased hash-sample of the reference stream.
//   - Replacement decisions are local to a shard. A one-shard pool
//     replays stat- and event-identical to a bare engine — the
//     equivalence the tests pin down; with more shards the resident set
//     partitions (the classic partitioned-LRU approximation).
//   - Stats() merges the per-shard counters with Stats.Add; the sums are
//     exact because each counter is owned by exactly one shard. Under
//     concurrency, coalesced misses are counted in Stats.Coalesced, so
//     DiskReads stays the physical read count.
//   - With a write-back queue, dirty write-backs are asynchronous.
//     Flush, Clear and Close drain the queue before returning; until
//     then the pool serves the queued versions on a miss
//     (read-your-writes), never the stale store.
//
// Sinks attached via SetSink receive the merged event stream of all
// shards (each event stamped with its shard index) and must be safe for
// concurrent use. Call Close when done to stop the writer goroutines; an
// un-Closed async pool leaks them but is otherwise harmless.
type Shared struct {
	shards []*shard
	// wb is the background write-back queue of the async layout, nil
	// otherwise.
	wb *writeback
}

// shard is one latched engine of a Shared pool. It owns the lock
// instrumentation — contention profiling and per-request latch-wait
// measurement happen here, never in the engine — and the async miss
// protocol drops exactly its mutex around a physical read.
//
// One kind of request does not have to own the mutex: a Get of a
// resident page, once the mutex has been found held, that is, once a
// second goroutine has shown up. It reads the page from the engine's
// frame table, appends (page, query) to hits and returns; whoever
// acquires the mutex next first replays hits through the engine, so
// engine, policy and sink see every request, in request order, before
// any victim is chosen. See DESIGN.md §5c, "Latch-free hits".
type shard struct {
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
func (l *shard) drain() {
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
// would have: latency sample (one in sampleEvery, timing the replay),
// clock, counters, event, OnHit, LastUse; no tracer samples it. If the
// request that held the mutex meanwhile evicted the page, the hit still
// counts and reports, but there is no frame for the policy to touch.
func (l *shard) replay(p *page.Page, ctx AccessContext) {
	e := l.e
	weight, start := e.startSample(nil)
	if f := e.frames.Get(p.ID); f != nil {
		e.hit(f, ctx)
	} else {
		e.countHit(&p.Meta, ctx)
	}
	e.finish(nil, start, weight, true, false)
}

// lock acquires the mutex for anything that is not a request.
func (l *shard) lock() {
	if !l.mu.TryLock() {
		l.deferLeft.Store(deferRounds)
		l.mu.Lock()
	}
	l.drain()
}

// tryLockRequest acquires the mutex for a request if it is free (for a
// contention profiler a wait of zero, and no clock reading). Finding it
// held starts or extends deferral.
func (l *shard) tryLockRequest() bool {
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
func (l *shard) lockRequest() {
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
		start := monoNow()
		l.mu.Lock()
		wait := monoNow() - start
		if c != nil {
			c.EndWait(l.e.shard, wait)
		}
		if traced {
			l.e.pendingLockWait = wait
		}
	}
	l.drain()
}

// get is the shard's read path. It takes the mutex when it is free — all
// there is to it on an unshared pool — and while the shard defers serves
// a resident page from the frame table, its bookkeeping left in the ring.
// A full ring is drained by the next mutex holder: the request tries to
// be that one, and if the mutex is held, most likely by a request that is
// draining and has flipped the ring already, yields and looks again. For
// a miss, or a holder that takes more than a few yields, it queues.
func (l *shard) get(id page.ID, ctx AccessContext) (*page.Page, error) {
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

// newShared builds a pool of the given total capacity (in frames) over
// the store, with one policy instance per shard from the factory and wb
// as its write-back queue (nil: every write is synchronous). shards is
// clamped to [1, capacity/2] so every shard owns at least two frames (the
// minimum any standard policy accepts). The store is shared by all
// shards and must be safe for concurrent use.
func newShared(store storage.Store, factory PolicyFactory, capacity, shards int, wb *writeback) (*Shared, error) {
	if store == nil || factory == nil {
		return nil, errors.New("buffer: nil store or policy factory")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d, need ≥ 1", capacity)
	}
	shards = max(1, min(shards, capacity/2))
	s := &Shared{shards: make([]*shard, shards), wb: wb}
	base, extra := capacity/shards, capacity%shards
	for i := range s.shards {
		shardCap := base
		if i < extra {
			shardCap++
		}
		pol := factory(shardCap)
		if pol == nil {
			return nil, fmt.Errorf("buffer: policy factory returned nil for shard %d", i)
		}
		e, err := NewEngine(store, pol, shardCap)
		if err != nil {
			return nil, fmt.Errorf("buffer: shard %d: %w", i, err)
		}
		e.shard = i
		e.frames.publish() // for the hits served without the mutex
		sh := &shard{e: e}
		if wb != nil {
			e.async = &asyncShard{e: e, l: sh, flight: make(map[page.ID]*inflight), wb: wb}
		}
		s.shards[i] = sh
	}
	return s, nil
}

// shardFor routes a page ID to its shard. The murmur3 finalizer mixes
// the (often dense, sequential) page IDs so neighbouring tree nodes
// spread across shards instead of piling onto one.
func (s *Shared) shardFor(id page.ID) *shard {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return s.shards[h%uint64(len(s.shards))]
}

// each runs f on every shard's engine in turn, under the shard's latch,
// until f fails.
func (s *Shared) each(f func(*Engine) error) error {
	for i, sh := range s.shards {
		sh.lock()
		err := f(sh.e)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("buffer: shard %d: %w", i, err)
		}
	}
	return nil
}

// Shards returns the number of shards (≥ 1; may be lower than requested
// at construction when the capacity could not feed that many shards).
func (s *Shared) Shards() int { return len(s.shards) }

// View implements Pool: f runs on shard i's engine under that shard's
// mutex, after the hits served without it have been replayed.
func (s *Shared) View(i int, f func(*Engine)) {
	sh := s.shards[i]
	sh.lock()
	defer sh.mu.Unlock()
	f(sh.e)
}

// Get implements Pool (and rtree.Reader): the request is served by the
// page's shard.
func (s *Shared) Get(id page.ID, ctx AccessContext) (*page.Page, error) {
	return s.shardFor(id).get(id, ctx)
}

// Put implements Pool: the write path of the page's shard. Put never
// reads the store (the caller provides the content), so it runs under
// the shard latch in every layout; a dirty victim it evicts is still
// queued for background write-back when the pool has a queue.
func (s *Shared) Put(p *page.Page, ctx AccessContext) error {
	if p == nil || p.ID == page.InvalidID {
		return errors.New("buffer: put of invalid page")
	}
	sh := s.shardFor(p.ID)
	sh.lockRequest()
	defer sh.mu.Unlock()
	return sh.e.Put(p, ctx)
}

// Fix implements Pool: pins the page in its shard.
func (s *Shared) Fix(id page.ID, ctx AccessContext) (*page.Page, error) {
	sh := s.shardFor(id)
	sh.lockRequest()
	defer sh.mu.Unlock()
	return sh.e.Fix(id, ctx)
}

// Unfix implements Pool. Like the other request methods it routes
// through lockRequest, so contention profiling and traced root spans
// cover pin releases too.
func (s *Shared) Unfix(id page.ID) error {
	sh := s.shardFor(id)
	sh.lockRequest()
	defer sh.mu.Unlock()
	return sh.e.Unfix(id)
}

// MarkDirty implements Pool.
func (s *Shared) MarkDirty(id page.ID) error {
	sh := s.shardFor(id)
	sh.lockRequest()
	defer sh.mu.Unlock()
	return sh.e.MarkDirty(id)
}

// Flush writes back all dirty resident pages, shard by shard. With a
// write-back queue this happens between two drains of it, so when Flush
// returns every write-back decided before the call is durable. The first
// drain leaves the per-shard flushes few writers to run behind. A
// write-back that starts after it can still be in flight when its page —
// put again meanwhile — is flushed; that version then joins the page's
// writer instead of being written alongside (see Engine.writeOut), and
// the second drain waits for it.
func (s *Shared) Flush() error {
	if err := s.drainWriteback(); err != nil {
		return err
	}
	if err := s.each((*Engine).Flush); err != nil {
		return err
	}
	return s.drainWriteback()
}

// drainWriteback waits for the write-back queue to empty; a pool without
// one has nothing to wait for.
func (s *Shared) drainWriteback() error {
	if s.wb == nil {
		return nil
	}
	if err := s.wb.drain(); err != nil {
		return fmt.Errorf("buffer: write-back drain: %w", err)
	}
	return nil
}

// Close flushes the pool and stops the background writer goroutines.
// The pool remains usable afterwards — with the queue closed, dirty
// evictions fall back to synchronous writes — and closing it again only
// flushes.
func (s *Shared) Close() error {
	err := s.Flush()
	if s.wb != nil {
		if cerr := s.wb.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Clear evicts everything, resets every shard's policy and zeroes all
// counters, draining the write-back queue first (and clearing its sticky
// error either way — Clear zeroes all accounting). Shards are cleared one
// at a time; concurrent requests against not-yet-cleared shards proceed
// normally, so quiesce the pool first when a globally cold start matters.
func (s *Shared) Clear() error {
	err := s.drainWriteback()
	if s.wb != nil {
		s.wb.resetErr()
	}
	if err != nil {
		return err
	}
	return s.each((*Engine).Clear)
}

// Stats returns the merge (Stats.Add) of the per-shard counters. Under
// concurrent load the shards are snapshotted one after another, so the
// merged values are per-shard consistent but not a single instant in
// global time — the usual multi-counter scrape contract.
func (s *Shared) Stats() Stats {
	var total Stats
	s.each(func(e *Engine) error { total.Add(e.Stats()); return nil })
	return total
}

// Len returns the total number of resident pages across all shards.
func (s *Shared) Len() int {
	n := 0
	s.each(func(e *Engine) error { n += e.Len(); return nil })
	return n
}

// SetSink attaches one observability sink to every shard; each shard's
// engine stamps its index on what it emits, and gives a signal registry
// (the live service's sink) a block of its own. The sink receives events
// from all shards concurrently and must be safe for concurrent use (the
// async ring is). A nil sink detaches.
func (s *Shared) SetSink(sink obs.Sink) {
	s.each(func(e *Engine) error { e.SetSink(sink); return nil })
}

// SetTracer attaches one request-scoped span tracer to every shard (see
// Engine.SetTracer) and to the background writers, whose store writes
// record KindWriteback spans. Each shard records under its own index,
// into its own trace ring; while a tracer is attached, each request's
// shard-latch wait is measured and lands in its root span's LockWait
// (0 = the latch was free). The tracer must have been built with at
// least Shards() rings. A nil tracer detaches.
func (s *Shared) SetTracer(t *tracing.Tracer) {
	s.each(func(e *Engine) error { e.SetTracer(t); return nil })
	for _, sh := range s.shards {
		sh.traceWait.Store(t != nil)
	}
	if s.wb != nil {
		s.wb.tracer.Store(t)
	}
}

// EnableContention attaches a shard-contention profiler: every request's
// latch acquisition reports its wait time and queue position under its
// shard index. The profiler must have been built with at least Shards()
// shards. Pass nil to stop profiling.
func (s *Shared) EnableContention(c *tracing.Contention) {
	for _, sh := range s.shards {
		sh.contention.Store(c)
	}
}

// InflightReads returns the number of physical reads currently in
// progress outside the shard latches — the summed occupancy of the
// per-shard flight tables, 0 without a write-back queue. The shards are
// counted one after another, so under churn the sum is an instantaneous
// estimate, not an atomic snapshot.
func (s *Shared) InflightReads() int {
	n := 0
	if s.wb != nil {
		s.each(func(e *Engine) error { n += len(e.async.flight); return nil })
	}
	return n
}

// Writeback returns a snapshot of the background write-back queue
// counters; zeros without a queue.
func (s *Shared) Writeback() WritebackMetrics {
	if s.wb == nil {
		return WritebackMetrics{}
	}
	return s.wb.metrics()
}
