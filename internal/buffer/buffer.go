// Package buffer implements the buffer manager in front of a page store:
// the component whose replacement policy the paper studies.
//
// The package is organized as one core engine plus three orthogonal,
// stackable layers:
//
//   - Engine — the unlocked, single-threaded core that owns the entire
//     request path: frame arena lifecycle, hit/miss accounting,
//     read-before-evict ordering, pin counts, dirty tracking, policy
//     callbacks, and the only code that emits observability events,
//     shadow metadata and request-scoped tracing spans.
//   - LockedEngine — a mutex around an Engine, with lock-contention and
//     lock-wait profiling (Lock); once it is contended, hits are served
//     latch-free and accounted by the next mutex holder.
//   - Router — a page-hash sharding layer over locked engines, with
//     per-shard policy instances, shard-tagged events and exact stats
//     merging (NewRouter).
//   - AsyncPool — an asynchronous-I/O layer: per-shard singleflight
//     read coalescing and a bounded background write-back queue
//     (Async).
//
// Compositions are described by a Composition spec (ParseComposition /
// Composition.Build). See DESIGN.md, "Engine layering".
//
// A page request is a hit (served from memory, no physical I/O) or a
// miss (one physical read through the store, possibly preceded by an
// eviction chosen by the replacement Policy). Requests carry an
// AccessContext with the current query ID: the paper (§2.2) treats two
// accesses as correlated exactly when they belong to the same query,
// which the LRU-K policy needs.
//
// The replacement policies themselves (LRU, LRU-T, LRU-P, LRU-K, the
// spatial strategies, SLRU and the adaptable spatial buffer) live in
// package core; they plug in through the Policy interface.
package buffer

import (
	"errors"

	"repro/internal/core/intrusive"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// ErrAllPinned is returned when a miss cannot evict because every frame is
// pinned.
var ErrAllPinned = errors.New("buffer: all frames pinned")

// AccessContext describes one page request and travels with it through
// the pool layers, every engine step and every policy callback. QueryID
// identifies the query on whose behalf the request is made; the paper
// defines two accesses to be correlated iff they share a query (§2.2).
// Callers fill in QueryID only. The context is also the one place where
// a request learns what to record.
type AccessContext struct {
	QueryID uint64

	// trace is the request's span trace when an attached tracer sampled
	// it. Only the engine sets it, on its own copy of the context, where
	// the request enters.
	trace *tracing.Active
	// engine is the engine serving the request, set where trace is; nil
	// in a context no engine made (a hand-driven policy, a shadow cache).
	engine *Engine
}

// Trace returns the span trace of the request, nil unless a tracer
// sampled it. ASB attaches its asb-adapt child spans to it.
func (c AccessContext) Trace() *tracing.Active { return c.trace }

// OverflowPromotion and Adapt are how a policy reports while it serves
// the request: the event gets the shard of the request's engine and goes
// to the sink that engine holds now. A context no engine made discards it.
func (c AccessContext) OverflowPromotion(e obs.OverflowPromotionEvent) {
	if c.engine != nil {
		e.Shard = c.engine.shard
		c.engine.sink.OverflowPromotion(e)
	}
}

// Adapt reports a candidate-size adaptation (see OverflowPromotion).
func (c AccessContext) Adapt(e obs.AdaptEvent) {
	if c.engine != nil {
		e.Shard, e.Ref = c.engine.shard, c.engine.stats.Requests
		c.engine.sink.Adapt(e)
	}
}

// Frame is one buffer slot: a cached page, its descriptor, and the
// bookkeeping the engine and policy need.
//
// Beyond the engine-owned fields, a frame embeds the intrusive words the
// replacement policies link it with: list hooks, a heap slot, a scratch
// tag, a cached criterion and a recency stamp. Exactly one policy owns a
// frame per residence (OnAdmit to OnEvict), so the words are shared
// across policies without conflict; the arena scrubs them on every
// recycle. See DESIGN.md, "Frame lifecycle and memory layout".
type Frame struct {
	Meta page.Meta
	Page *page.Page

	// LastUse is the logical time (engine clock) of the most recent
	// request for this frame. The engine updates it after OnHit returns,
	// so policies observe the previous value during the callback and
	// receive the new value as the callback's now argument.
	LastUse uint64

	// Dirty marks the page for write-back on eviction.
	Dirty bool

	pins int

	// arena is 1+slot index in the owning Arena, 0 for frames constructed
	// outside an arena.
	arena int32

	// Links are the intrusive list hooks of the owning policy's recency /
	// FIFO / ring order (LRU, FIFO, LRU-T/P, LRU-K residency, SLRU, ASB,
	// CLOCK).
	Links intrusive.Hooks[*Frame]

	// Slot is the frame's position in the owning policy's min-heap
	// (Spatial), maintained by the heap's move callback; -1 when absent.
	Slot int32

	// Tag is small per-policy scratch: the ASB region (main/overflow), the
	// CLOCK reference bit, a PriorityLRU class, or an LRU-K history-record
	// index.
	Tag uint32

	// Crit caches the owning policy's spatial criterion value for the
	// page, so victim scans and ASB adaptation votes never recompute MBR
	// geometry.
	Crit float64

	// Stamp is a policy-owned recency shadow of LastUse (Spatial updates
	// it in OnHit, before the engine bumps LastUse).
	Stamp uint64
}

// Pinned reports whether the frame is currently pinned and therefore not
// evictable.
func (f *Frame) Pinned() bool { return f.pins > 0 }

// ArenaIndex returns the frame's slot in its engine's arena, or -1 for
// frames constructed outside an arena (hand-made test frames).
func (f *Frame) ArenaIndex() int32 { return f.arena - 1 }

// Choice is a policy's answer to Victim, returned by value: the frame it
// picked and why (the strings hold constants). The engine fills the
// victim-select span and the obs.EvictionEvent from it, so a policy
// decides which page leaves and never how that is reported.
type Choice struct {
	// Frame is the victim, never pinned; nil when every frame is pinned.
	Frame *Frame
	// Reason is the policy's eviction-reason constant (obs.Reason*).
	Reason string
	// CritKind names what Win and Lose measure: the spatial criterion
	// ("A", "EA", …), "class" for the priority class of LRU-T/P, "hist-k"
	// for LRU-K's HIST(q,K); empty for policies that rank by order alone.
	CritKind string
	// Win is the victim's deciding value, 0 when the policy has none.
	Win float64
	// Lose is the largest (best-to-keep) value among the candidates the
	// victim won against, 0 when none were compared.
	Lose float64
	// Rank is the victim's place in the policy's LRU or FIFO order (0 =
	// least recently used / oldest admission, more when pinned frames were
	// skipped), -1 without such an order or without a victim.
	Rank int
}

// Policy decides which frame to evict when the buffer is full.
//
// The engine guarantees: OnAdmit is called exactly once per residence of a
// page; OnHit only for admitted frames; Victim only when at least one frame
// exists; OnEvict exactly once for the frame most recently returned by
// Victim (a nil Choice.Frame the engine surfaces as ErrAllPinned).
//
// Reporting is the engine's: the Choice fills the victim-select span of a
// sampled request, and the eviction's one obs.EvictionEvent follows
// OnEvict — so a failed dirty write-out leaves a span but no event.
type Policy interface {
	// Name returns the policy's display name (e.g. "LRU", "ASB").
	Name() string
	// OnAdmit is invoked when f enters the buffer at logical time now.
	OnAdmit(f *Frame, now uint64, ctx AccessContext)
	// OnHit is invoked when a request finds f in the buffer. f.LastUse
	// still holds the previous access time; the engine sets it to now
	// after the callback returns.
	OnHit(f *Frame, now uint64, ctx AccessContext)
	// Victim selects the frame to evict and says why (see Choice).
	// ctx is the access on whose behalf the eviction happens; LRU-K uses
	// it to exclude pages whose last reference is correlated with the
	// current access (paper §2.2, third case).
	Victim(ctx AccessContext) Choice
	// OnEvict is invoked after the engine removed f from the buffer.
	OnEvict(f *Frame)
	// Reset discards all policy state (the buffer was cleared).
	Reset()
}

// Updater is an optional Policy extension for policies that cache
// page-derived state (e.g. spatial criteria): OnUpdate is invoked instead
// of OnHit when a resident page's content changes via Put.
type Updater interface {
	OnUpdate(f *Frame, now uint64, ctx AccessContext)
}

// Stats are the logical access counters of an Engine. DiskReads equals
// Misses minus Coalesced: every non-coalesced miss costs exactly one
// physical read.
type Stats struct {
	Requests  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Puts counts write-path requests (Engine.Put); they are not part
	// of Requests/Hits/Misses, which describe the read path.
	Puts uint64
	// WriteBacks counts dirty pages handed to the store on eviction or
	// Flush. With a background write-back queue attached this counts the
	// logical write-back decisions; the physical store writes can be
	// fewer when several write-backs of the same page coalesce.
	WriteBacks uint64
	// Coalesced counts misses that were served without their own
	// physical read: either by sharing another request's in-flight read
	// (singleflight) or from a page still waiting in the write-back
	// queue. Always a subset of Misses; zero on synchronous pools, so
	// Misses-Coalesced equals the physical read count.
	Coalesced uint64
}

// Add accumulates o into s, field by field. It is the merge operation
// behind Router.Stats: counters are additive, so the merge of the
// per-shard snapshots equals the counters of the whole run.
func (s *Stats) Add(o Stats) {
	s.Requests += o.Requests
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Puts += o.Puts
	s.WriteBacks += o.WriteBacks
	s.Coalesced += o.Coalesced
}

// DiskReads returns the number of physical reads caused through the
// buffer — the paper's cost metric for read-only workloads. Coalesced
// misses shared another request's read (or a queued write-back), so
// they cost no read of their own.
func (s Stats) DiskReads() uint64 { return s.Misses - s.Coalesced }

// DiskIO returns physical reads plus write-backs — the cost metric for
// update workloads.
func (s Stats) DiskIO() uint64 { return s.DiskReads() + s.WriteBacks }

// HitRatio returns Hits/Requests, or 0 for an unused buffer.
func (s Stats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}
