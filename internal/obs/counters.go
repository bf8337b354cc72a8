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

// EvictionsByReason holds per-reason eviction counts, indexed by the
// reason slots above: a plain array (not a map), so the buffer.Stats that
// holds it stays comparable and allocation-free to copy. Its one writer
// is the engine that keeps it, under its own serialization.
type EvictionsByReason [numReasonSlots]uint64

// Add counts one eviction for reason.
func (e *EvictionsByReason) Add(reason string) { e[reasonSlot(reason)]++ }

// Each calls f for every reason with a nonzero count, in the fixed slot
// order — the deterministic iteration the exporters rely on.
func (e *EvictionsByReason) Each(f func(reason string, count uint64)) {
	for i, n := range e {
		if n > 0 {
			f(reasonSlotNames[i], n)
		}
	}
}

// Counters counts the events async rings dropped (live.AsyncSink, through
// AddDropped, from the rings' own goroutines). Everything else the live
// service exports the engines keep in their Stats and histograms.
type Counters struct {
	dropped atomic.Uint64
}

// AddDropped records n events discarded before reaching a consumer
// (ring-sink backpressure); safe from any goroutine.
func (c *Counters) AddDropped(n uint64) { c.dropped.Add(n) }

// Dropped returns the events discarded so far.
func (c *Counters) Dropped() uint64 { return c.dropped.Load() }
