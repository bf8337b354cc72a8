package core

import (
	"repro/internal/buffer"
	"repro/internal/obs"
)

// LRU is the least-recently-used baseline policy: the victim is the
// unpinned page that has not been accessed for the longest time. Frames
// are threaded onto a buffer.List through their own link words, so
// admission, hits and eviction allocate nothing.
type LRU struct {
	// order is the recency list, front = most recently used.
	order buffer.List
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements buffer.Policy.
func (p *LRU) Name() string { return "LRU" }

// OnAdmit implements buffer.Policy.
func (p *LRU) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.order.PushFront(f)
}

// OnHit implements buffer.Policy.
func (p *LRU) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.order.MoveToFront(f)
}

// Victim implements buffer.Policy: the least recently used unpinned
// frame; its rank counts the pinned frames skipped.
func (p *LRU) Victim(ctx buffer.AccessContext) buffer.Choice {
	f, rank := firstUnpinned(&p.order, false)
	return buffer.Choice{Frame: f, Reason: obs.ReasonLRU, Rank: rank}
}

// OnEvict implements buffer.Policy.
func (p *LRU) OnEvict(f *buffer.Frame) { p.order.Remove(f) }

// Reset implements buffer.Policy.
func (p *LRU) Reset() { p.order.Clear() }

// FIFO evicts pages in admission order regardless of later hits. It is
// used as the eviction rule of the ASB overflow buffer and available as a
// standalone baseline.
type FIFO struct {
	// order is the admission queue, front = oldest admission.
	order buffer.List
}

// NewFIFO returns a FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements buffer.Policy.
func (p *FIFO) Name() string { return "FIFO" }

// OnAdmit implements buffer.Policy.
func (p *FIFO) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.order.PushBack(f)
}

// OnHit implements buffer.Policy: hits do not reorder a FIFO.
func (p *FIFO) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {}

// Victim implements buffer.Policy: the oldest unpinned admission; its
// rank is its place in admission order (0 = oldest).
func (p *FIFO) Victim(ctx buffer.AccessContext) buffer.Choice {
	f, rank := firstUnpinned(&p.order, true)
	return buffer.Choice{Frame: f, Reason: obs.ReasonFIFO, Rank: rank}
}

// OnEvict implements buffer.Policy.
func (p *FIFO) OnEvict(f *buffer.Frame) { p.order.Remove(f) }

// Reset implements buffer.Policy.
func (p *FIFO) Reset() { p.order.Clear() }
