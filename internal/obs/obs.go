// Package obs is the observability layer of the buffer system: a
// structured event stream emitted by the buffer engine (and, for its
// adaptation, by ASB), the plain aggregators the engine keeps its live
// signals in (eviction counts by reason, log-bucketed histograms),
// exporters (JSONL, CSV c-trajectory) and profiling helpers shared by
// the commands.
//
// The design constraint is that observability must be free when unused:
// the engine holds its sinks (nil when none or a NopSink is attached, and
// then it builds no event) and emits fixed-size event structs by value,
// so unobserved the Engine.Get hot path stays allocation-free (asserted
// by TestRequestHitPathZeroAllocs in package buffer). What the live
// service exports — evictions by reason, adaptations by direction, the
// eviction-criterion and request-latency histograms — is not fed by
// events at all: every engine always keeps it, in plain fields beside
// its Stats (an EvictionsByReason, two LogHistograms), and the service
// reads it under the engine's latch, as it reads the Stats.
//
// Event types mirror the decisions the paper's evaluation reasons about:
//
//   - Request — every read-path buffer request, hit or miss (§3's
//     disk-access metric is derived from these);
//   - Eviction — a page leaving the buffer, with the policy's reason,
//     the criterion value that condemned it and its LRU rank, emitted by
//     the engine, once per eviction, from the policy's buffer.Choice;
//   - Adapt — an ASB overflow hit, the paper's adaptation event: the
//     promoted page, the §4.2 signal (better-spatial vs better-LRU
//     counts) and the candidate-set size before and after, the series
//     plotted in Fig. 14.
//
// Only buffer.Engine holds a Sink (attached through a pool's SetSink)
// and only it stamps an event's Shard. A policy reports through the
// AccessContext of the request it is serving (ASB's Adapt), which
// reaches whichever sink the engine holds at that moment; a context no
// engine made discards the event.
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
	ReasonPriority    = "priority-lru" // LRU within the lowest non-empty priority class (LRU-T/LRU-P/PIN)
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

// AdaptEvent describes one adaptation event: an ASB overflow hit, which
// promotes Page back into the main part and tunes the candidate-set size
// by the §4.2 signal. BetterSpatial counts overflow pages with a larger
// spatial criterion than the promoted page; BetterLRU counts those with a
// more recent use. One event is emitted per overflow hit even when the
// size is unchanged (OldC == NewC), matching the paper's definition of an
// adaptation event, so the event count equals the overflow-hit count.
type AdaptEvent struct {
	Page          page.ID
	BetterSpatial int
	BetterLRU     int
	OldC          int
	NewC          int
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
// (buffer.Shared) must be safe for concurrent use (the async ring is;
// the file-writing sinks are not).
type Sink interface {
	Request(e RequestEvent)
	Eviction(e EvictionEvent)
	Adapt(e AdaptEvent)
}

// RequestConsumer is the optional sink extension of a consumer that may
// read Request events only (the shadow bank, whose Eviction and Adapt do
// nothing, and a ring in front of it): when RequestsOnly reports true, an
// engine sends it no other kind, and a ring in front of it copies none.
type RequestConsumer interface {
	RequestsOnly() bool
}

// NopSink discards all events. It is the default sink of every engine;
// its calls compile to nothing and add no allocations.
type NopSink struct{}

// Request implements Sink.
func (NopSink) Request(RequestEvent) {}

// Eviction implements Sink.
func (NopSink) Eviction(EvictionEvent) {}

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

func (m multiSink) Adapt(e AdaptEvent) {
	for _, s := range m {
		s.Adapt(e)
	}
}

// flatten flattens sinks, Tee results included, into one fan-out,
// dropping nil entries and NopSinks.
func flatten(sinks ...Sink) (m multiSink) {
	for _, s := range sinks {
		switch t := s.(type) {
		case nil, NopSink:
		case multiSink:
			m = append(m, t...)
		default:
			m = append(m, s)
		}
	}
	return m
}

// Tee returns a sink that forwards every event to all the given sinks in
// order. Nil entries and NopSinks are dropped; Tee of zero remaining
// sinks is a NopSink, of one is that sink itself.
//
// The degenerate cases allocate nothing: callers on reconfiguration
// paths (SetSink during shutdown, single-sink pools) can call Tee
// unconditionally without ever paying for a fan-out they don't need.
func Tee(sinks ...Sink) Sink {
	n, last := 0, Sink(NopSink{})
	for _, s := range sinks {
		if _, nop := s.(NopSink); s != nil && !nop {
			n, last = n+1, s
		}
	}
	if n < 2 {
		return last
	}
	return flatten(sinks...)
}

// Route is how an engine serves the sink attached to it: requests go to
// every consumer, decisions (Eviction and Adapt events) to those that
// are not request-only — each nil when no consumer is left, and the
// engine then builds no such event.
func Route(s Sink) (requests, decisions Sink) {
	consumers := flatten(s)
	var deciders multiSink
	for _, c := range consumers {
		if rc, ok := c.(RequestConsumer); !ok || !rc.RequestsOnly() {
			deciders = append(deciders, c)
		}
	}
	return collapse(consumers), collapse(deciders)
}

// collapse returns nil for no sink, the sink itself for one, the fan-out
// otherwise.
func collapse(m multiSink) Sink {
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}
