package buffer

import (
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
// The layer serializes whole requests; it trades concurrency for the
// strict accounting the policies rely on (policy callbacks observe a
// consistent buffer state). It owns the lock-instrumentation
// invariants: contention profiling and per-request lock-wait
// measurement happen here, never in the engine. The async layer's miss
// protocol drops exactly this mutex around its physical reads.
type LockedEngine struct {
	mu sync.Mutex
	e  *Engine

	// shard is the index this engine reports under to the contention
	// profiler and the tracer: 0 for a standalone locked engine, the
	// routing index when owned by a Router.
	shard int

	// contention, when set, profiles acquisitions of mu under shard;
	// traceWait additionally feeds the measured wait into the root span
	// of traced requests. Both are read before taking mu, hence atomic.
	contention atomic.Pointer[tracing.Contention]
	traceWait  atomic.Bool
}

// Lock wraps an engine with the locking layer. The engine must not be
// used directly afterwards — the wrapper owns its serialization.
func Lock(e *Engine) *LockedEngine {
	return &LockedEngine{e: e}
}

// lockForShard is Lock plus the shard index the engine reports under;
// used by the sharding layer.
func lockForShard(e *Engine, shard int) *LockedEngine {
	le := Lock(e)
	le.shard = shard
	le.e.shard = shard
	return le
}

// lockRequest acquires the mutex for a request. With a contention
// profiler or tracer attached it tries the mutex first: an acquisition
// that finds it free counts with a wait of zero and reads no clock; one
// that has to queue is measured and its wait deposited with the engine
// (whose next traced root span attaches it). The common case (neither
// attached) is two atomic loads plus the plain Lock.
func (l *LockedEngine) lockRequest() {
	c := l.contention.Load()
	traced := l.traceWait.Load()
	if c == nil && !traced {
		l.mu.Lock()
		return
	}
	var wait int64
	if !l.mu.TryLock() {
		if c != nil {
			c.BeginWait(l.shard)
		}
		start := time.Now()
		l.mu.Lock()
		wait = time.Since(start).Nanoseconds()
		if c != nil {
			c.EndWait(l.shard, wait)
		}
	} else if c != nil {
		c.Uncontended(l.shard)
	}
	if traced {
		l.e.pendingLockWait = wait
	}
}

// Get implements Pool (and the Reader contract of rtree.Reader).
func (l *LockedEngine) Get(id page.ID, ctx AccessContext) (*page.Page, error) {
	l.lockRequest()
	defer l.mu.Unlock()
	return l.e.Get(id, ctx)
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

// Contains reports whether the page is resident (see Engine.Contains).
func (l *LockedEngine) Contains(id page.ID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.Contains(id)
}

// Flush writes back all dirty pages (see Engine.Flush).
func (l *LockedEngine) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.Flush()
}

// Clear resets the buffer (see Engine.Clear).
func (l *LockedEngine) Clear() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.Clear()
}

// Stats returns a snapshot of the counters.
func (l *LockedEngine) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.Stats()
}

// Len returns the number of resident pages.
func (l *LockedEngine) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.Len()
}

// Capacity returns the buffer capacity in frames.
func (l *LockedEngine) Capacity() int { return l.e.Capacity() }

// Policy returns the replacement-policy instance. The policy is driven
// under the mutex, so while the pool is serving, only accessors
// documented as concurrency-safe (e.g. core.ASB's atomic gauge mirrors)
// may be called on it.
func (l *LockedEngine) Policy() Policy { return l.e.Policy() }

// ResidentIDs returns the IDs of all resident pages (see
// Engine.ResidentIDs).
func (l *LockedEngine) ResidentIDs() []page.ID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.ResidentIDs()
}

// SetSink attaches an observability sink (see Engine.SetSink). Events
// are emitted under the layer's mutex, so any sink works here — but a
// concurrency-safe aggregator like obs.Counters keeps critical sections
// short.
func (l *LockedEngine) SetSink(sink obs.Sink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.e.SetSink(sink)
}

// SetTracer attaches a request-scoped span tracer to the wrapped engine
// (see Engine.SetTracer); the engine records under this layer's shard
// index (0 unless owned by a Router). While a tracer is attached, the
// mutex wait of a request that had to queue is measured and lands in its
// root span's LockWait (0 = the mutex was free). A nil tracer detaches.
func (l *LockedEngine) SetTracer(t *tracing.Tracer) {
	l.mu.Lock()
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
