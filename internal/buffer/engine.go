package buffer

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

// Engine is the core of every pool composition: the unlocked,
// single-threaded owner of the entire request path — frame arena
// lifecycle, hit/miss accounting, read-before-evict ordering, pin
// counts, dirty tracking and policy callbacks. It is also the only code
// in the package that emits request-path observability events (and the
// shadow page metadata they carry) and starts request-scoped tracing
// spans; a Shared pool adds concurrency, never semantics. A sampled
// request's trace rides in the request's AccessContext — the engine
// keeps no per-request state of its own, so nothing has to be put away
// when a request leaves the latch and another one enters.
//
// An Engine on its own is not safe for concurrent use — that is the job
// of a Shared pool, which routes page IDs across latched engines and,
// with a write-back queue, takes over each engine's misses — singleflight
// reads outside the latch — and its dirty write-outs.
//
// The experiment harness runs one bare engine per goroutine, exactly as
// the paper's single-threaded evaluation does.
type Engine struct {
	store    storage.Store
	policy   Policy
	capacity int
	// recycler is store when it takes back pages (storage.FileStore).
	recycler recycler

	frames FrameTable
	arena  *Arena
	clock  uint64
	stats  Stats

	// sink receives the Request events and decisions the Eviction and
	// Adapt events of the attached consumers (obs.Route); each is nil when
	// no consumer reads that kind, and then no such event is built.
	sink      obs.Sink
	decisions obs.Sink
	// signals is this engine's block of a live service's signals, nil
	// when no obs.SignalRegistry is attached; the engine is its only
	// writer. With it, startSample times one request in sampleEvery,
	// which stands for the untimed ones before it; without it the request
	// path reads no clock.
	signals *obs.Signals
	untimed uint64

	// tracer samples request-scoped span traces; nil when tracing is
	// disabled (the request path then pays a single pointer test). shard
	// is the pool-shard index stamped on every span this engine records
	// and every event it emits, the contention profiler's index too.
	tracer *tracing.Tracer
	shard  int
	// pendingLockWait is the latch wait of the request about to run,
	// deposited by the engine's shard after it acquired the
	// latch and consumed (and cleared) by the next traced request.
	pendingLockWait int64

	// async is this engine's share of an async pool, nil on synchronous
	// engines. The engine refers to it in three places:
	// fetch hands it every miss, writeOut hands it dirty pages, and put
	// tells it that a newer version supersedes a queued one.
	async *asyncShard
}

// NewEngine creates a bare core engine of the given capacity (in
// frames, ≥ 1) over store, managed by policy. For concurrent use build a
// shared pool with Composition.Build instead.
func NewEngine(store storage.Store, policy Policy, capacity int) (*Engine, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d, need ≥ 1", capacity)
	}
	if store == nil || policy == nil {
		return nil, errors.New("buffer: nil store or policy")
	}
	e := &Engine{
		store:    store,
		policy:   policy,
		capacity: capacity,
		frames:   NewFrameTable(capacity),
		arena:    NewArena(capacity),
	}
	e.recycler, _ = store.(recycler)
	return e, nil
}

// recycler is a store that decodes into the pages a pool lets go of.
type recycler interface{ Recycle(*page.Page) }

// drop releases the pool's reference on p and, unless the pool keeps p as
// keep, offers it to r, which claims it once unreferenced (DESIGN.md §5h).
func drop(r recycler, p, keep *page.Page) {
	p.Release()
	if r != nil && p != keep && p.HasLease() {
		r.Recycle(p)
	}
}

// SetSink attaches an observability sink to the engine, replacing the
// one attached before; a nil sink or a NopSink detaches. Request and
// Eviction events are the engine's, for any policy; what a policy
// reports of its own (ASB's Adapt) comes through the request's
// AccessContext and reaches the same sink. Each consumer is called only
// for the kinds it reads (obs.Route); each obs.SignalRegistry gets a
// fresh Signals block of this engine's.
func (e *Engine) SetSink(s obs.Sink) {
	var regs []obs.SignalRegistry
	e.sink, e.decisions, regs = obs.Route(s)
	e.signals, e.untimed = nil, 0
	if len(regs) > 0 {
		e.signals = new(obs.Signals)
		for _, r := range regs {
			r.Register(e.signals)
		}
	}
}

// SetTracer attaches a request-scoped span tracer to the engine. Nothing
// is forwarded to the policy or the store: a sampled request carries its
// trace in its AccessContext, so the engine's victim selections and store
// calls and ASB's adaptations appear as child spans of whichever request
// they serve. Every span is stamped with the index of the pool shard this
// engine serves (0 for a bare engine), which also selects the tracer's
// trace ring. A nil tracer detaches.
func (e *Engine) SetTracer(t *tracing.Tracer) {
	e.tracer = t
	e.pendingLockWait = 0
}

// Len returns the number of resident pages.
func (e *Engine) Len() int { return e.frames.Len() }

// Contains reports whether the page is resident (without counting a
// request or touching policy state).
func (e *Engine) Contains(id page.ID) bool {
	return e.frames.Get(id) != nil
}

// Policy returns the replacement policy driving this engine.
func (e *Engine) Policy() Policy { return e.policy }

// Stats returns the logical access counters.
func (e *Engine) Stats() Stats { return e.stats }

// Shards implements Pool: a bare engine is its own only shard.
func (e *Engine) Shards() int { return 1 }

// View implements Pool: the caller of a bare engine is its
// serialization, so f simply runs.
func (e *Engine) View(_ int, f func(*Engine)) { f(e) }

// Get requests the page without pinning it. The returned page must be
// treated as read-only and may be evicted by any later request. It holds
// one reference for the caller, who may page.Release it when done (see
// rtree.Reader); a page never released is never reused.
func (e *Engine) Get(id page.ID, ctx AccessContext) (*page.Page, error) {
	return e.request(tracing.KindGet, id, ctx, false)
}

// Fix requests the page and pins its frame; the caller must Unfix it.
// Pinned frames are never evicted. The page holds a reference like Get's.
func (e *Engine) Fix(id page.ID, ctx AccessContext) (*page.Page, error) {
	return e.request(tracing.KindFix, id, ctx, true)
}

// beginRequest starts the root tracing span of one request-path
// operation, consuming the deposited latch wait. It is the single site
// in the package that starts request spans; it returns nil when tracing
// is off or the request was not sampled.
func (e *Engine) beginRequest(kind tracing.SpanKind, id page.ID, query uint64) *tracing.Active {
	if e.tracer == nil {
		return nil
	}
	wait := e.pendingLockWait
	e.pendingLockWait = 0
	return e.tracer.StartRequest(kind, id, query, e.shard, wait)
}

// sampleEvery is the latency-sampling interval: with a signal registry
// attached, one request in sampleEvery is timed and stands for all of
// them.
const sampleEvery = 64

// request implements the read-path protocol for Get (pin=false) and Fix
// (pin=true): lookup, then the hit in place or the miss through fetch. A
// request a tracer sampled carries its trace in ctx from here on.
func (e *Engine) request(kind tracing.SpanKind, id page.ID, ctx AccessContext, pin bool) (*page.Page, error) {
	ctx.trace, ctx.engine = e.beginRequest(kind, id, ctx.QueryID), e
	f := e.frames.Get(id)
	hit := f != nil
	weight, start := e.startSample(ctx.trace)
	if !hit {
		pg, err := e.fetch(id, ctx, pin)
		e.finish(ctx.trace, start, weight, false, err != nil)
		return pg, err
	}
	e.hit(f, ctx)
	if pin {
		f.pins++
	}
	f.Page.Acquire()
	e.finish(ctx.trace, start, weight, true, false)
	return f.Page, nil
}

// startSample is the one place a request learns what to record of its
// own duration: the weight of its latency sample (0 = not timed) and,
// unless its trace a has the clock readings already, the first one, in
// nanoseconds of the monotonic clock (monoNow). With a signal block
// attached a request — hit, miss or Put — is timed when sampleEvery-1
// untimed ones preceded it, or when a tracer sampled it, and stands for
// those too: the latency count trails the requests by < sampleEvery,
// its sum and quantiles stay consistent estimators. Must run under the
// engine's serialization.
func (e *Engine) startSample(a *tracing.Active) (weight uint64, start int64) {
	if e.signals == nil {
		return 0, start
	}
	e.untimed++
	if a == nil && e.untimed < sampleEvery {
		return 0, start
	}
	weight, e.untimed = e.untimed, 0
	if a == nil {
		start = monoNow()
	}
	return weight, start
}

// epoch is the origin of monoNow.
var epoch = time.Now()

// monoNow reads the monotonic clock alone, in nanoseconds since epoch:
// time.Since of a time carrying a monotonic reading reads no wall
// clock, which time.Now does as well (≈ 40 against ≈ 70 ns on a 2-core
// Xeon).
func monoNow() int64 { return int64(time.Since(epoch)) }

// finish closes the request's trace and publishes its latency sample;
// the root span's duration is the sample of a traced request.
func (e *Engine) finish(a *tracing.Active, start int64, weight uint64, hit, failed bool) {
	var ns int64
	if a != nil {
		ns = a.Finish(hit, failed)
	} else if weight > 0 {
		ns = monoNow() - start
	}
	if weight > 0 && e.signals != nil { // SetSink may detach while an async miss reads
		e.signals.Timed(ns, weight)
	}
}

// fetch serves a request that found its page non-resident; it is entered
// and left under the caller's serialization. On an engine under the
// async pool the miss is handed to it; otherwise the physical read
// happens in place. Read before evicting: a failed read must not discard
// a perfectly good cached page (or count an eviction) for a request that
// errored.
func (e *Engine) fetch(id page.ID, ctx AccessContext, pin bool) (*page.Page, error) {
	if e.async != nil {
		return e.async.miss(id, ctx, pin)
	}
	now := e.miss(false)
	p, err := readPage(e.store, ctx.trace, id)
	if err != nil {
		// The miss was counted, so its event must still flow — with a
		// zero Meta, since no page materialized.
		e.emitMiss(id, ctx, false, nil)
		return nil, err
	}
	// Emit after the successful read, so the event carries the page's
	// Meta (shadow caches replay spatial criteria from it), and before
	// admission, so Request still precedes any Eviction it causes.
	e.emitMiss(id, ctx, false, &p.Meta)
	f, err := e.admit(p, now, ctx)
	if err != nil {
		p.Release()
		return nil, err
	}
	if pin {
		f.pins++
	}
	return f.Page, nil // with the reference the store read handed out
}

// hit accounts one read request served by the resident frame f: clock
// tick, hit counters, sink event, policy OnHit, LastUse update. Must
// run under the engine's serialization.
func (e *Engine) hit(f *Frame, ctx AccessContext) {
	now := e.countHit(&f.Meta, ctx)
	e.policy.OnHit(f, now, ctx)
	f.LastUse = now
}

// countHit is the part of hit that needs no frame — clock tick, hit
// counters, sink event — and returns the request's logical time.
func (e *Engine) countHit(m *page.Meta, ctx AccessContext) uint64 {
	e.clock++
	e.stats.Requests++
	e.stats.Hits++
	if e.sink != nil {
		e.emitRequest(m.ID, ctx, true, false, m)
	}
	return e.clock
}

// miss accounts one read request that missed and returns the request's
// logical time, at which the page should later be admitted. coalesced
// marks misses that will share another request's physical read instead
// of performing their own. Counting is split from event emission
// (emitMiss) so the miss paths can attach the read page's Meta to the
// event once the read resolved. Must run under the engine's
// serialization.
func (e *Engine) miss(coalesced bool) uint64 {
	e.clock++
	e.stats.Requests++
	e.stats.Misses++
	if coalesced {
		e.stats.Coalesced++
	}
	return e.clock
}

// emitMiss publishes the Request event of a miss counted by miss,
// exactly once per counted miss. meta is the descriptor of the page the
// miss resolved to, or nil when none materialized (failed reads,
// coalesced waiters): the event's Meta is zero then. Must run under the
// engine's serialization.
func (e *Engine) emitMiss(id page.ID, ctx AccessContext, coalesced bool, meta *page.Meta) {
	if e.sink != nil {
		e.emitRequest(id, ctx, false, coalesced, meta)
	}
}

// emitRequest publishes one request event to the attached sink — the
// single site in the package that emits request-path observability
// events (and, through the event's Meta, the metadata the shadow-cache
// profiler replays). Its callers test for a sink first, so an
// unobserved engine builds no event.
func (e *Engine) emitRequest(id page.ID, ctx AccessContext, hit, coalesced bool, meta *page.Meta) {
	ev := obs.RequestEvent{Page: id, QueryID: ctx.QueryID, Hit: hit, Shard: e.shard, Coalesced: coalesced}
	if meta != nil {
		ev.Meta = *meta
	}
	e.sink.Request(ev)
}

// admit installs the freshly read page at logical time now, evicting
// first when the buffer is full. Must run under the engine's
// serialization; now must come from miss.
func (e *Engine) admit(p *page.Page, now uint64, ctx AccessContext) (*Frame, error) {
	if e.frames.Len() >= e.capacity {
		if err := e.evictOne(ctx); err != nil {
			return nil, err
		}
	}
	f := e.allocFrame()
	f.Meta = p.Meta
	f.Page = p
	p.Acquire() // the pool's reference, held while p is resident
	f.LastUse = now
	e.frames.Put(f)
	e.policy.OnAdmit(f, now, ctx)
	return f, nil
}

// allocFrame takes a scrubbed frame from the arena. The capacity check in
// the admit paths guarantees a free frame (residents ≤ capacity = arena
// size); the heap fallback only exists so an invariant bug degrades to an
// allocation instead of a crash.
func (e *Engine) allocFrame() *Frame {
	if f := e.arena.Alloc(); f != nil {
		return f
	}
	return &Frame{Slot: -1}
}

// writeOut writes one dirty page to the store. In an async pool the
// page's background writer takes it: an evicted page is queued with the
// pool's reference, which a write drops (misses on it read the queue, not
// the stale store, until it lands), a page that stays resident only joins
// a write of that page already in flight, so the two cannot overlap or
// land out of order. Otherwise — no queue, queue full or closed, or
// nothing in flight — the write happens in place; that is safe because a
// page is only ever queued under this engine's serialization, which the
// caller holds — and is recorded as a store.Write child span of a, the
// trace of the request or Flush that caused it (nil when unsampled).
func (e *Engine) writeOut(p *page.Page, evicted bool, a *tracing.Active) error {
	if e.async != nil {
		var taken bool
		if evicted {
			taken = e.async.wb.enqueue(p, e.shard)
		} else {
			taken = e.async.wb.coalesce(p)
		}
		if taken {
			return nil
		}
	}
	err := writePage(e.store, a, p)
	if evicted && err == nil {
		drop(e.recycler, p, nil)
	}
	return err
}

// readPage and writePage are the package's two store calls: every
// physical read and write of every composition goes through them, as a
// store.Read / store.Write child span (page, encoded bytes, error flag)
// of the trace a when the caller's request was sampled, as the plain
// store call when a is nil. The store sees the same call either way.
func readPage(s storage.Store, a *tracing.Active, id page.ID) (*page.Page, error) {
	if a == nil {
		return s.Read(id)
	}
	idx := a.Start(tracing.KindStoreRead)
	p, err := s.Read(id)
	sp := a.At(idx)
	sp.Page = id
	sp.Err = err != nil
	sp.Bytes = int32(storage.PageBytes(p))
	a.End(idx)
	return p, err
}

func writePage(s storage.Store, a *tracing.Active, p *page.Page) error {
	if a == nil {
		return s.Write(p)
	}
	idx := a.Start(tracing.KindStoreWrite)
	err := s.Write(p)
	sp := a.At(idx)
	sp.Page = p.ID
	sp.Err = err != nil
	sp.Bytes = int32(storage.PageBytes(p))
	a.End(idx)
	return err
}

// evictOne asks the policy for its choice, writes the victim out if
// dirty, and removes it. Evictions are reported here and nowhere else:
// the choice fills the victim-select span of a sampled request and, after
// OnEvict, the signals and the event.
func (e *Engine) evictOne(ctx AccessContext) error {
	a := ctx.trace
	var span int32
	if a != nil {
		span = a.Start(tracing.KindVictim)
	}
	c := e.policy.Victim(ctx)
	v := c.Frame
	if a != nil {
		sp := a.At(span)
		sp.Reason, sp.CritKind = c.Reason, c.CritKind
		sp.CritWin = c.Win
		sp.Rank, sp.Slot = int32(c.Rank), -1
		sp.Err = v == nil // every frame pinned
		if v != nil {
			sp.Page, sp.Slot = v.Meta.ID, v.arenaIndex()
		}
		a.End(span)
	}
	if v == nil {
		return errAllPinned
	}
	if v.Pinned() {
		return fmt.Errorf("buffer: policy %s returned pinned victim %d", e.policy.Name(), v.Meta.ID)
	}
	if e.frames.Get(v.Meta.ID) == nil {
		return fmt.Errorf("buffer: policy %s returned non-resident victim %d", e.policy.Name(), v.Meta.ID)
	}
	if v.Dirty {
		if err := e.writeOut(v.Page, true, ctx.trace); err != nil { // the pool's reference goes along
			return fmt.Errorf("buffer: write-back of page %d: %w", v.Meta.ID, err)
		}
		e.stats.WriteBacks++
	}
	e.frames.Delete(v.Meta.ID)
	e.stats.Evictions++
	e.policy.OnEvict(v)
	if e.signals != nil {
		e.signals.Evicted(c.Reason, c.Win)
	}
	if e.decisions != nil {
		e.decisions.Eviction(obs.EvictionEvent{Page: v.Meta.ID, Reason: c.Reason, Criterion: c.Win, LRURank: c.Rank, Shard: e.shard})
	}
	if !v.Dirty {
		drop(e.recycler, v.Page, nil)
	}
	// The policy has unlinked the frame and nothing above holds a *Frame
	// (callers only ever see *page.Page), so the slot recycles to the
	// free-list for the admission that triggered this eviction.
	e.arena.Free(v)
	return nil
}

// Unfix releases one pin on the page. Like Get/Put it routes through
// the tracing plumbing: sampled unfixes record a root span (Hit set
// when the page was resident), so pin-leak debugging can line pins and
// unpins up in one trace timeline.
func (e *Engine) Unfix(id page.ID) error {
	if a := e.beginRequest(tracing.KindUnfix, id, 0); a != nil {
		resident := e.Contains(id)
		err := e.unfix(id)
		a.Finish(resident, err != nil)
		return err
	}
	return e.unfix(id)
}

// unfix is the untraced pin release.
func (e *Engine) unfix(id page.ID) error {
	f := e.frames.Get(id)
	if f == nil {
		return fmt.Errorf("buffer: unfix of non-resident page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: unfix of unpinned page %d", id)
	}
	f.pins--
	return nil
}

// MarkDirty flags a resident page for write-back on eviction or Flush.
// Sampled calls record a root span like Get/Put, so the dirtying of a
// page is visible in the same trace timeline as its later write-back.
func (e *Engine) MarkDirty(id page.ID) error {
	if a := e.beginRequest(tracing.KindMarkDirty, id, 0); a != nil {
		resident := e.Contains(id)
		err := e.markDirty(id)
		a.Finish(resident, err != nil)
		return err
	}
	return e.markDirty(id)
}

// markDirty is the untraced dirty flagging.
func (e *Engine) markDirty(id page.ID) error {
	f := e.frames.Get(id)
	if f == nil {
		return fmt.Errorf("buffer: mark dirty of non-resident page %d", id)
	}
	f.Dirty = true
	return nil
}

// Put installs a new version of a page in the buffer and marks it dirty;
// it is the write path for update workloads. A non-resident page is
// admitted without a physical read (the caller provides the content); a
// resident page is replaced in place. Dirty pages are written back on
// eviction or Flush. A Put is sampled for latency like a read request.
// Put never reads the store, so it runs entirely under the latch in
// every composition.
func (e *Engine) Put(p *page.Page, ctx AccessContext) error {
	ctx.engine = e
	if p != nil {
		ctx.trace = e.beginRequest(tracing.KindPut, p.ID, ctx.QueryID)
	}
	// A traced Put "hits" when it replaced a resident page in place.
	resident := ctx.trace != nil && e.Contains(p.ID)
	weight, start := e.startSample(ctx.trace)
	err := e.put(p, ctx)
	e.finish(ctx.trace, start, weight, resident, err != nil)
	return err
}

// put is the untimed write path.
func (e *Engine) put(p *page.Page, ctx AccessContext) error {
	if p == nil || p.ID == page.InvalidID {
		return errors.New("buffer: put of invalid page")
	}
	e.clock++
	now := e.clock
	e.stats.Puts++

	if f := e.frames.Get(p.ID); f != nil {
		old := f.Page
		p.Acquire()
		f.Page = p
		f.Meta = p.Meta
		f.Dirty = true
		e.frames.Put(f)
		drop(e.recycler, old, p) // once the frame table shows p
		if u, ok := e.policy.(updater); ok {
			u.OnUpdate(f, now, ctx)
		} else {
			e.policy.OnHit(f, now, ctx)
		}
		f.LastUse = now
		return nil
	}

	if e.async != nil {
		// A queued write-back of an older version is superseded by this
		// content; cancel it so the stale write can never land after ours.
		if old, ok := e.async.wb.take(p.ID, false); ok {
			drop(e.recycler, old, p)
		}
	}
	f, err := e.admit(p, now, ctx)
	if err == nil {
		f.Dirty = true
	}
	return err
}

// Flush writes back all dirty resident pages without evicting them.
// Flushes are rare and expensive, so a tracer records every one (no
// sampling), with one store.Write child span per dirty page.
func (e *Engine) Flush() error {
	a := e.tracer.StartOp(tracing.KindFlush, e.shard)
	err := e.flush(a)
	a.Finish(false, err != nil)
	return err
}

// flush is the write-back loop, recording into a (nil when untraced).
func (e *Engine) flush(a *tracing.Active) error {
	for i := range e.frames.slots {
		f := e.frames.slots[i].f
		if f == nil || !f.Dirty {
			continue
		}
		if err := e.writeOut(f.Page, false, a); err != nil {
			return fmt.Errorf("buffer: flush page %d: %w", f.Meta.ID, err)
		}
		e.stats.WriteBacks++
		f.Dirty = false
	}
	return nil
}

// Clear evicts everything (writing back dirty pages), resets the policy
// and zeroes the statistics. The paper clears the buffer before each query
// set "in order to increase the comparability of the results" (§3).
func (e *Engine) Clear() error {
	if err := e.Flush(); err != nil {
		return err
	}
	e.frames.clear()
	for i := range e.arena.frames {
		if p := e.arena.frames[i].Page; p != nil {
			drop(e.recycler, p, nil)
		}
	}
	// Reset the policy while the frame links are still intact (its Clear
	// walks them), then scrub and refill the arena.
	e.policy.Reset()
	e.arena.reset()
	e.clock = 0
	e.stats = Stats{}
	return nil
}

// ResidentIDs returns the IDs of all resident pages, for tests and
// introspection. Order is unspecified.
func (e *Engine) ResidentIDs() []page.ID { return e.frames.ResidentIDs() }
