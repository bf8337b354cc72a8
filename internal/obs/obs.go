// Package obs is the observability layer of the buffer system: a
// structured event stream emitted by the buffer engine (and, for its
// adaptation, by ASB), plus cheap aggregators (atomic counters, a
// windowed hit-ratio tracker), exporters (JSONL, CSV c-trajectory) and
// profiling helpers shared by the commands.
//
// The design constraint is that observability must be free when unused:
// the engine holds a Sink (never nil — NopSink by default) and emits
// fixed-size event structs by value, so with the no-op sink the
// Engine.Get hot path stays allocation-free (asserted by
// TestRequestHitPathZeroAllocs in package buffer).
//
// Event types mirror the decisions the paper's evaluation reasons about:
//
//   - Request — every read-path buffer request, hit or miss (§3's
//     disk-access metric is derived from these);
//   - Eviction — a page leaving the buffer, with the policy's reason,
//     the criterion value that condemned it and its LRU rank, emitted by
//     the engine, once per eviction, from the policy's buffer.Choice;
//   - OverflowPromotion — an ASB overflow hit with the §4.2 adaptation
//     signal (better-spatial vs better-LRU counts);
//   - Adapt — a change (or re-confirmation) of the ASB candidate-set
//     size, the series plotted in Fig. 14.
//
// Only buffer.Engine holds a Sink (attached through a pool's SetSink)
// and only it stamps an event's Shard. A policy reports through the
// AccessContext of the request it is serving (ASB's OverflowPromotion
// and Adapt), which reaches whichever sink the engine holds at that
// moment; a context no engine made discards the event.
package obs

import "repro/internal/page"

// RequestEvent describes one read-path buffer request. Shard is the
// index of the pool shard that served the request; 0 for unsharded
// pools (the engine stamps every event with the shard it serves).
type RequestEvent struct {
	Page    page.ID
	QueryID uint64
	Hit     bool
	Shard   int
	// Coalesced marks a miss that performed no physical read of its own:
	// it shared another request's in-flight read (singleflight) or was
	// served from the background write-back queue. Always false for hits
	// and on synchronous pools.
	Coalesced bool
	// Meta is the requested page's descriptor — the spatial criteria a
	// downstream consumer (the shadow-cache simulators of obs/shadow)
	// needs to replay spatial replacement decisions without touching page
	// data. Hits carry the resident frame's Meta; misses carry the Meta
	// of the page that was read, so the event is emitted after the
	// physical read succeeds. Zero (Meta.ID == 0) on failed reads and on
	// coalesced waiters of an async pool, which never observe the page
	// under their shard lock; consumers must treat a zero Meta as
	// "criteria unknown". JSONL serialization ignores Meta, so event
	// files are unaffected.
	Meta page.Meta
}

// Eviction reasons. Constants rather than free-form strings so sinks can
// switch on them without comparisons against magic literals.
const (
	ReasonLRU         = "lru"          // least recently used
	ReasonFIFO        = "fifo"         // oldest admission
	ReasonPriority    = "priority-lru" // LRU within the lowest non-empty priority class (LRU-T/LRU-P)
	ReasonSLRU        = "slru"         // spatial choice from the LRU candidate set
	ReasonSpatial     = "spatial"      // pure spatial minimum-criterion choice
	ReasonLRUK        = "lru-k"        // oldest HIST(q,K)
	ReasonASBOverflow = "asb-overflow" // FIFO head of the ASB overflow buffer
	ReasonASBMain     = "asb-main"     // ASB main-part SLRU victim (overflow empty)
	ReasonClock       = "clock"        // first clear reference bit under the CLOCK hand
)

// EvictionEvent describes a page leaving the buffer. Criterion is the
// policy's victim-selection value (spatial criterion for the spatial
// family, HIST(q,K) for LRU-K, the priority class for LRU-T/P; 0 when
// not applicable). LRURank is the victim's distance from the eviction
// end of the policy's LRU or FIFO order at selection time (0 = least
// recently used), or -1 when the policy has no meaningful rank (heap-,
// history- or ring-ordered policies).
type EvictionEvent struct {
	Page      page.ID
	Reason    string
	Criterion float64
	LRURank   int
	// Shard is the pool shard the page left (0 for unsharded pools).
	Shard int
}

// OverflowPromotionEvent describes an ASB overflow hit: the page is
// promoted back into the main part and the §4.2 signal is computed.
// BetterSpatial counts overflow pages with a larger spatial criterion
// than the promoted page; BetterLRU counts those with a more recent use.
type OverflowPromotionEvent struct {
	Page          page.ID
	BetterSpatial int
	BetterLRU     int
	// Shard is the pool shard whose overflow buffer hit (0 when
	// unsharded).
	Shard int
}

// AdaptEvent describes one adaptation event of the ASB candidate-set
// size. One event is emitted per overflow hit even when the size is
// unchanged (OldC == NewC), matching the paper's definition of an
// adaptation event, so the event count equals the overflow-hit count.
type AdaptEvent struct {
	OldC int
	NewC int
	// Shard is the pool shard whose candidate size adapted (0 when
	// unsharded). Each shard's ASB instance tunes its own c.
	Shard int
	// Ref is the shard's request count at the adaptation, the request
	// that caused it included — the x axis of Fig. 14.
	Ref uint64
}

// Sink receives buffer and policy events. Implementations must treat the
// calls as hot-path: no locking beyond what the caller's concurrency
// model requires, no retention of pointers into policy state (events are
// self-contained values). A sink used with a concurrent composition
// (buffer.LockedEngine and above) must be safe for concurrent use
// (Counters is; the file-writing sinks are not).
type Sink interface {
	Request(e RequestEvent)
	Eviction(e EvictionEvent)
	OverflowPromotion(e OverflowPromotionEvent)
	Adapt(e AdaptEvent)
}

// LatencyRecorder is the optional sink extension for wall-clock request
// timings. The simulation core is counting-based and never times
// requests; but when the attached sink implements LatencyRecorder, the
// buffer engine times them with a pair of monotonic-clock readings and
// publishes weighted samples: a miss and a Put are always timed and
// arrive with weight 1; a hit is timed one in 64 and arrives with weight
// = the hits since the last timed hit, itself included. A call counts as
// weight samples of nanos each, so counts follow the requests (at most
// 63 hits late) and sums and quantiles stay consistent estimators.
// Histogram implements it; Tee propagates it.
type LatencyRecorder interface {
	RecordLatency(nanos int64, weight uint64)
}

// NopSink discards all events. It is the default sink of every engine;
// its calls compile to nothing and add no allocations.
type NopSink struct{}

// Request implements Sink.
func (NopSink) Request(RequestEvent) {}

// Eviction implements Sink.
func (NopSink) Eviction(EvictionEvent) {}

// OverflowPromotion implements Sink.
func (NopSink) OverflowPromotion(OverflowPromotionEvent) {}

// Adapt implements Sink.
func (NopSink) Adapt(AdaptEvent) {}

// multiSink fans events out to several sinks in order.
type multiSink []Sink

func (m multiSink) Request(e RequestEvent) {
	for _, s := range m {
		s.Request(e)
	}
}

func (m multiSink) Eviction(e EvictionEvent) {
	for _, s := range m {
		s.Eviction(e)
	}
}

func (m multiSink) OverflowPromotion(e OverflowPromotionEvent) {
	for _, s := range m {
		s.OverflowPromotion(e)
	}
}

func (m multiSink) Adapt(e AdaptEvent) {
	for _, s := range m {
		s.Adapt(e)
	}
}

// timedMultiSink is a multiSink whose members include at least one
// LatencyRecorder; it forwards RecordLatency to those members so that a
// Tee of (histogram, jsonl, …) still receives request timings.
type timedMultiSink struct {
	multiSink
	timers []LatencyRecorder
}

func (t timedMultiSink) RecordLatency(nanos int64, weight uint64) {
	for _, lr := range t.timers {
		lr.RecordLatency(nanos, weight)
	}
}

// Tee returns a sink that forwards every event to all the given sinks in
// order. Nil entries and NopSinks are dropped; Tee of zero remaining
// sinks is a NopSink, of one is that sink itself. If any kept sink
// implements LatencyRecorder, the returned sink does too (forwarding to
// exactly those members), so request timing survives fan-out.
//
// The degenerate cases allocate nothing: callers on reconfiguration
// paths (SetSink during shutdown, single-sink pools) can call Tee
// unconditionally without ever paying for a fan-out they don't need.
func Tee(sinks ...Sink) Sink {
	drop := func(s Sink) bool {
		if s == nil {
			return true
		}
		_, nop := s.(NopSink)
		return nop
	}
	// Count before building: a multiSink is only materialized when two
	// or more sinks actually remain.
	n, last := 0, Sink(nil)
	for _, s := range sinks {
		if !drop(s) {
			n++
			last = s
		}
	}
	switch n {
	case 0:
		return NopSink{}
	case 1:
		return last
	}
	kept := make(multiSink, 0, n)
	for _, s := range sinks {
		if !drop(s) {
			kept = append(kept, s)
		}
	}
	var timers []LatencyRecorder
	for _, s := range kept {
		if lr, ok := s.(LatencyRecorder); ok {
			timers = append(timers, lr)
		}
	}
	if len(timers) > 0 {
		return timedMultiSink{multiSink: kept, timers: timers}
	}
	return kept
}
