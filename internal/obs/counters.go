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

// Counters counts what only the engine's decisions can say — evictions
// by reason, adaptations by direction — and the events an async ring
// dropped. How many requests, hits, misses, coalesced reads and
// evictions there were the engine keeps in its Stats, and the exporters
// read them there.
//
// The decision counts have one writer: the engine whose Signals block
// holds them, under its own serialization, with a load and a store (no
// read-modify-write); any goroutine may read them. AddDropped is an
// atomic add, safe from any goroutine.
type Counters struct {
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

// bump adds one to a counter that has a single writer.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// evicted counts one eviction for reason; single writer.
func (c *Counters) evicted(reason string) { bump(&c.byReason[reasonSlot(reason)]) }

// adapted counts one adaptation from candidate size oldC to newC; single
// writer.
func (c *Counters) adapted(oldC, newC int) {
	switch {
	case newC > oldC:
		bump(&c.adaptGrow)
	case newC < oldC:
		bump(&c.adaptShrink)
	default:
		bump(&c.adaptHold)
	}
}

// AddDropped records n events discarded before reaching a consumer
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
	Adaptations uint64

	ByReason    EvictionsByReason
	AdaptGrow   uint64
	AdaptShrink uint64
	AdaptHold   uint64
	Dropped     uint64
}

// addTo adds the counts to s, the merge of several Counters' snapshots.
// Under a running writer the fields are individually, not mutually,
// consistent.
func (c *Counters) addTo(s *Snapshot) {
	grow, shrink, hold := c.adaptGrow.Load(), c.adaptShrink.Load(), c.adaptHold.Load()
	s.AdaptGrow += grow
	s.AdaptShrink += shrink
	s.AdaptHold += hold
	s.Adaptations += grow + shrink + hold
	s.Dropped += c.dropped.Load()
	for i := range c.byReason {
		s.ByReason[i] += c.byReason[i].Load()
	}
}
