package core

import (
	"repro/internal/buffer"
	"repro/internal/core/intrusive"
	"repro/internal/obs"
	"repro/internal/page"
)

// Spatial is a pure spatial page-replacement policy (paper §2.3): the
// victim is the unpinned page with the smallest spatial criterion
// (area, entry areas, margin, entry margins or entry overlap); among pages
// of equal criterion the least recently used is dropped, exactly the
// two-step selection rule of the paper.
//
// The criterion of a page never changes while it is resident (pages are
// read-only during queries), so frames live in an intrusive indexed
// min-heap ordered by (criterion, last use): the criterion is cached in
// Frame.Crit, the recency shadow in Frame.Stamp and the heap position in
// Frame.Slot, so hits only need a heap fix for the recency component,
// eviction is O(log n), and no step allocates.
type Spatial struct {
	crit page.Criterion
	h    intrusive.Heap[*buffer.Frame]
	// parked is reusable scratch for pinned frames popped aside during
	// victim selection.
	parked []*buffer.Frame
}

// spatialLess orders frames by (criterion, last use) ascending — the
// paper's two-step selection rule as one comparator.
func spatialLess(a, b *buffer.Frame) bool {
	if a.Crit != b.Crit {
		return a.Crit < b.Crit
	}
	return a.Stamp < b.Stamp
}

// frameMove caches a frame's heap position in its Slot word.
func frameMove(f *buffer.Frame, i int32) { f.Slot = i }

// NewSpatial returns the spatial policy for the given criterion; paper
// names: A, EA, M, EM, EO.
func NewSpatial(crit page.Criterion) *Spatial {
	return &Spatial{crit: crit, h: intrusive.NewHeap(spatialLess, frameMove)}
}

// Name implements buffer.Policy: the paper's abbreviation of the
// criterion.
func (p *Spatial) Name() string { return p.crit.String() }

// Criterion returns the spatial criterion this policy ranks by.
func (p *Spatial) Criterion() page.Criterion { return p.crit }

// OnAdmit implements buffer.Policy.
func (p *Spatial) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	f.Stamp = now
	p.h.Push(f)
}

// OnHit implements buffer.Policy: only the LRU tie-break component
// changes.
func (p *Spatial) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Stamp = now
	p.h.Fix(f.Slot)
}

// Victim implements buffer.Policy: the minimum-criterion unpinned frame,
// ties broken by least recent use. The choice has no rank: the heap
// tracks recency only as a tie-break.
func (p *Spatial) Victim(ctx buffer.AccessContext) buffer.Choice {
	// Pop pinned frames aside, take the first unpinned, push the pinned
	// ones back. Pins are rare and shallow in this workload.
	parked := p.parked[:0]
	c := buffer.Choice{Reason: obs.ReasonSpatial, CritKind: p.crit.String(), Rank: -1}
	for p.h.Len() > 0 {
		f := p.h.Min()
		if !f.Pinned() {
			c.Frame, c.Win = f, f.Crit
			break
		}
		parked = append(parked, p.h.Remove(0))
	}
	for _, f := range parked {
		p.h.Push(f)
	}
	p.parked = parked[:0]
	return c
}

// OnEvict implements buffer.Policy.
func (p *Spatial) OnEvict(f *buffer.Frame) {
	if f.Slot >= 0 {
		p.h.Remove(f.Slot)
	}
}

// Reset implements buffer.Policy. The heap's backing slice is kept, so a
// cleared policy refills without reallocating.
func (p *Spatial) Reset() { p.h.Clear() }

// Len returns the number of tracked frames (for tests).
func (p *Spatial) Len() int { return p.h.Len() }

// OnUpdate implements buffer.Updater: the page content changed, so the
// cached criterion is recomputed and the heap reordered.
func (p *Spatial) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	f.Stamp = now
	p.h.Fix(f.Slot)
}
