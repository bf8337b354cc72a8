package core

import (
	"fmt"
	"math"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// wholeBuffer is the candidate-set size of a window that spans the
// buffer: the pure spatial policy.
const wholeBuffer = math.MaxInt

// SLRU is the static combination of LRU and a spatial strategy (paper
// §4.1): LRU computes a candidate set — the cand least recently used
// pages — and the spatial criterion picks the victim from it (minimum
// criterion, LRU tie-break). cand interpolates between pure LRU
// (cand = 1) and the pure spatial policy (cand = buffer size, see
// NewSpatial); ASB's main part is an SLRU whose cand adapts (§4.2).
//
// Frames ride a recency buffer.List through their own link words; the
// criterion is cached in Frame.Crit at admission. The candidate set is
// the window: the min(cand, |order|) least recently used frames in a
// buffer.Heap ordered by (Crit, Stamp). Stamp is seq at the frame's
// latest move to the front, so it grows from the LRU end to the MRU end
// and the heap's minimum is the smallest criterion, ties to the LRU end.
// edge is the window's most recently used frame. The window is built at
// the first pick after Reset and kept from then on; edge is nil (and win
// empty) until then, and again whenever the list runs empty. Nothing on
// the request path allocates.
type SLRU struct {
	crit page.Criterion
	cand int
	// order is the recency list, front = most recently used.
	order buffer.List
	win   buffer.Heap
	edge  *buffer.Frame
	seq   uint64
	// parked is reusable scratch for pinned frames popped aside by pick.
	parked []*buffer.Frame
}

// NewSLRU returns an SLRU policy with a fixed candidate-set size of
// candSize frames (≥ 1).
func NewSLRU(crit page.Criterion, candSize int) *SLRU {
	if candSize < 1 {
		panic(fmt.Sprintf("core: SLRU candidate size must be ≥ 1, got %d", candSize))
	}
	return &SLRU{crit: crit, cand: candSize}
}

// NewSpatial returns the pure spatial policy for the given criterion
// (paper §2.3; names A, EA, M, EM, EO): the SLRU whose candidate set is
// the whole buffer, so the victim is the unpinned page with the smallest
// criterion, the least recently used among equals.
func NewSpatial(crit page.Criterion) *SLRU {
	return &SLRU{crit: crit, cand: wholeBuffer}
}

// Name implements buffer.Policy: the criterion's abbreviation for the
// spatial policy, SLRU(crit,cand) otherwise.
func (p *SLRU) Name() string {
	if p.cand == wholeBuffer {
		return p.crit.String()
	}
	return fmt.Sprintf("SLRU(%s,%d)", p.crit, p.cand)
}

// OnAdmit implements buffer.Policy.
func (p *SLRU) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	p.pushFront(f)
}

// OnHit implements buffer.Policy.
func (p *SLRU) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.touch(f)
}

// Victim implements buffer.Policy: the window's pick. The choice has no
// rank: the heap tracks recency only as a tie-break.
func (p *SLRU) Victim(ctx buffer.AccessContext) buffer.Choice {
	c := buffer.Choice{Reason: obs.ReasonSLRU, CritKind: p.crit.String(), Rank: -1}
	if p.cand == wholeBuffer {
		c.Reason = obs.ReasonSpatial
	}
	if f := p.pick(); f != nil {
		c.Frame, c.Win = f, f.Crit
	}
	return c
}

// OnEvict implements buffer.Policy.
func (p *SLRU) OnEvict(f *buffer.Frame) { p.unlink(f) }

// Reset implements buffer.Policy. The heap's backing slice is kept, so a
// cleared policy refills without reallocating.
func (p *SLRU) Reset() {
	p.order.Clear()
	p.win.Clear()
	p.edge = nil
}

// OnUpdate implements the buffer's optional updater hook: refresh the
// cached criterion and the recency position.
func (p *SLRU) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	p.touch(f)
}

// pushFront links f at the front with the next seq as its Stamp. While
// the window spans the list, f joins it.
func (p *SLRU) pushFront(f *buffer.Frame) {
	p.seq++
	f.Stamp = p.seq
	p.order.PushFront(f)
	if p.edge != nil && p.win.Len() < p.cand {
		p.win.Push(f)
		p.edge = f
	}
}

// touch moves f, which is on the list, to the front: at most one sift. A
// window frame that stays in a spanning window is re-stamped in place;
// one that leaves is replaced by the frame in front of the window.
func (p *SLRU) touch(f *buffer.Frame) {
	if f.Slot >= 0 {
		if p.win.Len() < p.order.Len() {
			p.edge = p.order.Prev(p.edge)
			p.win.Replace(f.Slot, p.edge)
		} else {
			p.edge = f
		}
	}
	p.seq++
	f.Stamp = p.seq
	p.order.Remove(f)
	p.order.PushFront(f)
	if f.Slot >= 0 {
		p.win.Fix(f.Slot)
	}
}

// unlink removes f from the list. A window frame that leaves is replaced
// by the frame in front of the window, if the list has one.
func (p *SLRU) unlink(f *buffer.Frame) {
	if f.Slot >= 0 {
		if p.win.Len() < p.order.Len() {
			p.edge = p.order.Prev(p.edge)
			p.win.Replace(f.Slot, p.edge)
		} else {
			if f == p.edge {
				p.edge = p.order.Next(f)
			}
			p.win.Remove(f.Slot)
		}
	}
	p.order.Remove(f)
}

// resize sets the candidate-set size and moves the window's edge to match.
func (p *SLRU) resize(c int) {
	p.cand = c
	if p.edge == nil {
		return
	}
	for p.win.Len() < c && p.win.Len() < p.order.Len() {
		p.edge = p.order.Prev(p.edge)
		p.win.Push(p.edge)
	}
	for p.win.Len() > c {
		f := p.edge
		p.edge = p.order.Next(f)
		p.win.Remove(f.Slot)
	}
}

// pick is the §4.1 selection, building the window if it is not kept yet:
// the heap's minimum if it is unpinned; otherwise the first unpinned frame
// in heap order, found by popping pinned minima aside and pushing them
// back; if every window frame is pinned, the first unpinned frame in front
// of the window (degrading to LRU). nil when every frame is pinned.
func (p *SLRU) pick() *buffer.Frame {
	if p.edge == nil {
		for f := p.order.Back(); f != nil && p.win.Len() < p.cand; f = p.order.Prev(f) {
			p.win.Push(f)
			p.edge = f
		}
		if p.edge == nil {
			return nil
		}
	}
	if v := p.win.Min(); !v.Pinned() {
		return v
	}
	var v *buffer.Frame
	parked := p.parked[:0]
	for p.win.Len() > 0 {
		if f := p.win.Min(); !f.Pinned() {
			v = f
			break
		}
		parked = append(parked, p.win.Remove(0))
	}
	for _, f := range parked {
		p.win.Push(f)
	}
	p.parked = parked[:0]
	for f := p.order.Prev(p.edge); v == nil && f != nil; f = p.order.Prev(f) {
		if !f.Pinned() {
			v = f
		}
	}
	return v
}
