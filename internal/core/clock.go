package core

import (
	"repro/internal/buffer"
	"repro/internal/obs"
)

// Clock is the classic second-chance (CLOCK) approximation of LRU: frames
// sit on a circular list with a reference bit; the hand sweeps, clearing
// bits, and evicts the first frame whose bit is already clear. It is the
// policy most disk-based DBMS actually ship and serves as an additional
// baseline beyond the paper's set.
//
// The ring is a buffer.List closed logically: the hand is a frame
// pointer and advancing past the list tail wraps to its head. The
// reference bit lives in Frame.Tag, so admission, hits and sweeps
// allocate nothing.
type Clock struct {
	// ring holds the frames in hand order; traversal wraps front↔back.
	ring buffer.List
	// hand is the current clock hand; nil when the ring is empty.
	hand *buffer.Frame
}

// NewClock returns a CLOCK policy.
func NewClock() *Clock { return &Clock{} }

// Name implements buffer.Policy.
func (p *Clock) Name() string { return "CLOCK" }

// next advances one position around the ring, wrapping at the end.
func (p *Clock) next(f *buffer.Frame) *buffer.Frame {
	if n := p.ring.Next(f); n != nil {
		return n
	}
	return p.ring.Front()
}

// OnAdmit implements buffer.Policy: the frame is inserted behind the hand
// with its reference bit CLEAR — the bit is earned by a re-reference, so
// one-shot pages are evicted on the first sweep (the second-chance
// variant that approximates LRU most closely).
func (p *Clock) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Tag = 0
	if p.hand == nil {
		p.ring.PushBack(f)
		p.hand = f
		return
	}
	// InsertBefore the hand = behind it in sweep order (the hand reaches
	// the newcomer last).
	p.ring.InsertBefore(f, p.hand)
}

// OnHit implements buffer.Policy: set the reference bit.
func (p *Clock) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Tag = 1
}

// Victim implements buffer.Policy: sweep, clearing reference bits, until
// an unpinned frame with a clear bit is found. The ring keeps no recency
// order, so the choice has no rank.
func (p *Clock) Victim(ctx buffer.AccessContext) buffer.Choice {
	c := buffer.Choice{Reason: obs.ReasonClock, Rank: -1}
	if p.hand == nil {
		return c
	}
	// Two full sweeps suffice: the first clears bits, the second must
	// find a victim unless everything is pinned.
	for i := 0; i < 2*p.ring.Len(); i++ {
		f := p.hand
		if !f.Pinned() {
			if f.Tag == 0 {
				c.Frame = f
				break
			}
			f.Tag = 0
		}
		p.hand = p.next(f)
	}
	return c
}

// OnEvict implements buffer.Policy.
func (p *Clock) OnEvict(f *buffer.Frame) {
	if p.ring.Len() == 1 {
		p.hand = nil
	} else if p.hand == f {
		p.hand = p.next(f)
	}
	p.ring.Remove(f)
}

// Reset implements buffer.Policy.
func (p *Clock) Reset() {
	p.ring.Clear()
	p.hand = nil
}

// PinLevels is the buffer of Leutenegger & Lopez (ICDE 1998), which the
// paper cites as the special case its LRU-P generalizes: pages at tree
// level ≥ MinLevel are pinned in the buffer (never evicted as long as an
// alternative exists); the rest is plain LRU.
type PinLevels struct {
	// MinLevel is the lowest tree level that is pinned (e.g. 1 pins all
	// directory levels of an R-tree).
	MinLevel int
	lru      *LRU
}

// NewPinLevels returns a policy pinning pages at level ≥ minLevel.
func NewPinLevels(minLevel int) *PinLevels {
	return &PinLevels{MinLevel: minLevel, lru: NewLRU()}
}

// Name implements buffer.Policy.
func (p *PinLevels) Name() string { return "PIN" }

// OnAdmit implements buffer.Policy.
func (p *PinLevels) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.lru.OnAdmit(f, now, ctx)
}

// OnHit implements buffer.Policy.
func (p *PinLevels) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.lru.OnHit(f, now, ctx)
}

// pinned reports whether the frame belongs to a pinned level.
func (p *PinLevels) pinnedLevel(f *buffer.Frame) bool {
	return f.Meta.Level >= p.MinLevel
}

// Victim implements buffer.Policy: the LRU frame among non-pinned levels;
// if only pinned-level frames remain, the LRU of those (the buffer must
// stay functional). The rank is the victim's place in the underlying LRU
// order, counting every frame passed over.
func (p *PinLevels) Victim(ctx buffer.AccessContext) buffer.Choice {
	c := buffer.Choice{Reason: obs.ReasonLRU, Rank: -1}
	for f, rank := p.lru.order.Back(), 0; f != nil; f, rank = p.lru.order.Prev(f), rank+1 {
		if f.Pinned() {
			continue
		}
		if !p.pinnedLevel(f) {
			c.Frame, c.Rank = f, rank
			break
		}
		if c.Frame == nil {
			c.Frame, c.Rank = f, rank
		}
	}
	return c
}

// OnEvict implements buffer.Policy.
func (p *PinLevels) OnEvict(f *buffer.Frame) { p.lru.OnEvict(f) }

// Reset implements buffer.Policy.
func (p *PinLevels) Reset() { p.lru.Reset() }
