package obs

import "sync/atomic"

// Eviction-reason counter slots. The reasons are a closed set of
// constants (see obs.go); unknown strings share the trailing "other"
// slot so a misbehaving policy cannot grow the counter set unboundedly.
const (
	reasonSlotLRU = iota
	reasonSlotFIFO
	reasonSlotPriority
	reasonSlotSLRU
	reasonSlotSpatial
	reasonSlotLRUK
	reasonSlotASBOverflow
	reasonSlotASBMain
	reasonSlotClock
	reasonSlotOther
	numReasonSlots
)

// reasonSlotNames are the exposition labels, indexed by slot.
var reasonSlotNames = [numReasonSlots]string{
	ReasonLRU, ReasonFIFO, ReasonPriority, ReasonSLRU,
	ReasonSpatial, ReasonLRUK, ReasonASBOverflow, ReasonASBMain,
	ReasonClock, "other",
}

// reasonSlot maps an eviction reason to its counter slot.
func reasonSlot(r string) int {
	switch r {
	case ReasonLRU:
		return reasonSlotLRU
	case ReasonFIFO:
		return reasonSlotFIFO
	case ReasonPriority:
		return reasonSlotPriority
	case ReasonSLRU:
		return reasonSlotSLRU
	case ReasonSpatial:
		return reasonSlotSpatial
	case ReasonLRUK:
		return reasonSlotLRUK
	case ReasonASBOverflow:
		return reasonSlotASBOverflow
	case ReasonASBMain:
		return reasonSlotASBMain
	case ReasonClock:
		return reasonSlotClock
	}
	return reasonSlotOther
}

// Counters is a concurrency-safe event aggregator: plain atomic
// counters, cheap enough to leave attached in production, and shared by
// every producer of a pool. It counts only what the events alone can
// say — evictions by reason, overflow promotions, adaptations by
// direction, dropped events. How many requests, hits, misses, coalesced
// reads and evictions there were the engine keeps in its Stats under its
// latch, and the exporters read them there; a Request event carries
// nothing for Counters to count.
type Counters struct {
	NopSink

	promotions atomic.Uint64
	// byReason counts evictions per reason slot.
	byReason [numReasonSlots]atomic.Uint64
	// Adapt events split by direction of the candidate-size change.
	adaptGrow   atomic.Uint64
	adaptShrink atomic.Uint64
	adaptHold   atomic.Uint64
	// dropped counts events an async sink discarded under backpressure
	// (fed by live.AsyncSink through AddDropped).
	dropped atomic.Uint64
}

// Eviction implements Sink.
func (c *Counters) Eviction(e EvictionEvent) { c.byReason[reasonSlot(e.Reason)].Add(1) }

// OverflowPromotion implements Sink.
func (c *Counters) OverflowPromotion(OverflowPromotionEvent) { c.promotions.Add(1) }

// Adapt implements Sink.
func (c *Counters) Adapt(e AdaptEvent) {
	switch {
	case e.NewC > e.OldC:
		c.adaptGrow.Add(1)
	case e.NewC < e.OldC:
		c.adaptShrink.Add(1)
	default:
		c.adaptHold.Add(1)
	}
}

// AddDropped records n events discarded before reaching this aggregator
// (ring-sink backpressure). Exposed so the drop count appears in the
// same snapshot as the counts it qualifies.
func (c *Counters) AddDropped(n uint64) { c.dropped.Add(n) }

// EvictionsByReason holds per-reason eviction counts, indexed by the
// reason slots above. The array (not a map) keeps Snapshot comparable
// and allocation-free to copy.
type EvictionsByReason [numReasonSlots]uint64

// Each calls f for every reason with a nonzero count, in the fixed slot
// order — the deterministic iteration the exporters rely on.
func (e EvictionsByReason) Each(f func(reason string, count uint64)) {
	for i, n := range e {
		if n > 0 {
			f(reasonSlotNames[i], n)
		}
	}
}

// Snapshot is a point-in-time copy of the counters. It stays a
// comparable value type.
type Snapshot struct {
	Promotions  uint64
	Adaptations uint64

	ByReason    EvictionsByReason
	AdaptGrow   uint64
	AdaptShrink uint64
	AdaptHold   uint64
	Dropped     uint64
}

// Snapshot returns a point-in-time copy of the counters. Under
// concurrent producers the fields are individually, not mutually,
// consistent.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		Promotions:  c.promotions.Load(),
		AdaptGrow:   c.adaptGrow.Load(),
		AdaptShrink: c.adaptShrink.Load(),
		AdaptHold:   c.adaptHold.Load(),
		Dropped:     c.dropped.Load(),
	}
	s.Adaptations = s.AdaptGrow + s.AdaptShrink + s.AdaptHold
	for i := range c.byReason {
		s.ByReason[i] = c.byReason[i].Load()
	}
	return s
}
