package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// ASBOptions parameterize the adaptable spatial buffer. The defaults are
// the paper's settings (§4.3): an overflow buffer of 20% of the complete
// buffer, an initial candidate set of 25% of the remaining (main) part,
// adapted in steps of 1% of the main part.
type ASBOptions struct {
	// Criterion is the spatial criterion; the paper uses A.
	Criterion page.Criterion
	// OverflowFrac is the fraction of the total buffer reserved for the
	// FIFO overflow buffer.
	OverflowFrac float64
	// InitialCandFrac is the initial candidate-set size as a fraction of
	// the main part.
	InitialCandFrac float64
	// StepFrac is the adaptation step as a fraction of the main part.
	StepFrac float64
}

// DefaultASBOptions returns the paper's parameter settings.
func DefaultASBOptions() ASBOptions {
	return ASBOptions{
		Criterion:       page.CritA,
		OverflowFrac:    0.20,
		InitialCandFrac: 0.25,
		StepFrac:        0.01,
	}
}

// Frame.Tag values marking which ASB region a frame lives in.
const (
	asbMain uint32 = iota
	asbOver
)

// ASB is the adaptable spatial buffer (paper §4.2), the self-tuning
// combination of LRU and a spatial page-replacement strategy:
//
//   - The buffer is split into a main part and a FIFO overflow buffer.
//   - The main part is an SLRU: victims are chosen spatially from the
//     candidate set of the `cand` least recently used pages — but instead
//     of leaving memory they are demoted into the overflow buffer.
//   - Real evictions take the overflow buffer's FIFO head.
//   - When a request hits the overflow buffer, the page is promoted back
//     into the main part, and the candidate-set size adapts: among the
//     other overflow pages, count those with a better (larger) spatial
//     criterion than the promoted page and those with a better (more
//     recent) LRU criterion. More better-spatial pages means the spatial
//     strategy misjudged the page LRU would have kept — shrink the
//     candidate set toward LRU; more better-LRU pages means grow it
//     toward the spatial strategy; equal counts leave it unchanged.
//
// Both parts together never exceed the buffer capacity, so — unlike
// LRU-K — ASB needs no state for pages that have left the buffer.
//
// Both regions are buffer.Lists over the frames' own link words; a
// frame's region lives in Frame.Tag and its criterion is cached in
// Frame.Crit at admission, so demotions and the §4.2 adaptation votes
// never recompute MBR geometry and never allocate. The candidate set
// itself is a buffer.Heap (the window, see win), so a demotion costs
// O(log cand) instead of a scan of cand frames.
//
// ASB reports its adaptation through the context of the request it is
// serving (buffer.AccessContext), which hands the events to the engine's
// sink: an OverflowPromotion per overflow hit carrying the §4.2 signal
// and an Adapt per adaptation event (the Fig. 14 series).
type ASB struct {
	crit     page.Criterion
	mainCap  int
	overCap  int
	initCand int
	step     int

	cand int // current candidate-set size, in [1, mainCap]

	// main is the SLRU part, front = most recently used.
	main buffer.List
	// over is the overflow FIFO, front = oldest (next FIFO victim).
	over buffer.List

	// win is the candidate window: the min(cand, |main|) least recently
	// used frames of main in a heap ordered by (Crit, Stamp). Stamp is
	// seq at the frame's latest insertion at main's front, so it grows
	// from main's LRU end to its MRU end, and the heap's minimum is the
	// frame slruVictim(&main, cand) picks when it is unpinned: the
	// smallest criterion, ties to the LRU end. edge is the window's most
	// recently used frame. Both are built at the first demotion after
	// Reset and kept from then on; edge is nil (and win empty) until then,
	// and again whenever main runs empty.
	win  buffer.Heap
	edge *buffer.Frame
	seq  uint64

	adaptations uint64
	// Rounds the struct up to three whole cache lines, which the allocator
	// puts on a line boundary: sharing lines with whatever heap neighbour
	// another core writes (136 bytes), serve-observed ran 7–15 % slower.
	_ [48]byte
}

// NewASB returns an adaptable spatial buffer for a buffer of the given
// total capacity (in frames). Zero-valued option fields take the paper's
// defaults.
func NewASB(capacity int, opts ASBOptions) *ASB {
	if capacity < 2 {
		panic(fmt.Sprintf("core: ASB needs capacity ≥ 2, got %d", capacity))
	}
	def := DefaultASBOptions()
	if opts.OverflowFrac <= 0 {
		opts.OverflowFrac = def.OverflowFrac
	}
	if opts.InitialCandFrac <= 0 {
		opts.InitialCandFrac = def.InitialCandFrac
	}
	if opts.StepFrac <= 0 {
		opts.StepFrac = def.StepFrac
	}
	overCap := int(opts.OverflowFrac*float64(capacity) + 0.5)
	if overCap < 1 {
		overCap = 1
	}
	if overCap > capacity-1 {
		overCap = capacity - 1
	}
	mainCap := capacity - overCap
	a := &ASB{
		crit:     opts.Criterion,
		mainCap:  mainCap,
		overCap:  overCap,
		initCand: clamp(int(opts.InitialCandFrac*float64(mainCap)+0.5), 1, mainCap),
		step:     clamp(int(opts.StepFrac*float64(mainCap)+0.5), 1, mainCap),
	}
	a.cand = a.initCand
	return a
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Name implements buffer.Policy.
func (p *ASB) Name() string { return "ASB" }

// CandidateSize returns the current (adapted) candidate-set size.
func (p *ASB) CandidateSize() int { return p.cand }

// MainCapacity returns the capacity of the main part in frames.
func (p *ASB) MainCapacity() int { return p.mainCap }

// OverflowCapacity returns the capacity of the overflow buffer in frames.
func (p *ASB) OverflowCapacity() int { return p.overCap }

// OverflowLen returns the number of pages currently in the overflow
// buffer.
func (p *ASB) OverflowLen() int { return p.over.Len() }

// Adaptations returns how many overflow hits adjusted the candidate size.
func (p *ASB) Adaptations() uint64 { return p.adaptations }

// OnAdmit implements buffer.Policy: new pages enter the main part at the
// MRU position; if the main part exceeds its share, its SLRU victim is
// demoted into the overflow buffer.
func (p *ASB) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	f.Tag = asbMain
	p.pushFront(f)
	p.rebalance()
}

// OnHit implements buffer.Policy. A hit in the main part refreshes
// recency. A hit in the overflow buffer adapts the candidate-set size
// (§4.2, cases 1–3) and promotes the page back into the main part.
func (p *ASB) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	if f.Tag != asbOver {
		p.unlink(f)
		p.pushFront(f)
		return
	}
	p.adapt(f, ctx)
	p.over.Remove(f)
	f.Tag = asbMain
	p.pushFront(f)
	p.rebalance()
}

// adapt applies the self-tuning rule on an overflow hit. f.LastUse still
// holds the promoted page's previous access time (the manager updates it
// after OnHit), so the LRU comparison sees the state that led to the
// demotion. The raw signal is reported as an OverflowPromotion event and
// the resulting size as an Adapt event, both through ctx. On sampled
// requests (ctx carries a trace) the adaptation is recorded as an
// asb-adapt span.
func (p *ASB) adapt(f *buffer.Frame, ctx buffer.AccessContext) {
	act := ctx.Trace()
	var span int32
	if act != nil {
		span = act.Start(tracing.KindAdapt)
	}
	oldC := p.cand
	betterSpatial, betterLRU := 0, 0
	defer func() {
		if act != nil {
			sp := act.At(span)
			sp.Page = f.Meta.ID
			sp.OldC, sp.NewC = int32(oldC), int32(p.cand)
			sp.BetterSpatial, sp.BetterLRU = int32(betterSpatial), int32(betterLRU)
			act.End(span)
		}
	}()
	for q := p.over.Front(); q != nil; q = p.over.Next(q) {
		if q == f {
			continue
		}
		if q.Crit > f.Crit {
			betterSpatial++
		}
		if q.LastUse > f.LastUse {
			betterLRU++
		}
	}
	ctx.OverflowPromotion(obs.OverflowPromotionEvent{
		Page:          f.Meta.ID,
		BetterSpatial: betterSpatial,
		BetterLRU:     betterLRU,
	})
	// The overflow population is not a neutral sample: every page in it
	// was *selected* for a small spatial criterion by the main part's
	// victim choice, which deflates the better-spatial count relative to
	// the better-LRU count. Growing the candidate set therefore requires
	// a margin (a quarter of the overflow occupancy); shrinking is taken
	// at face value. This keeps the adaptation of §4.2 stable on
	// workloads hostile to the spatial strategy — see DESIGN.md §5.
	margin := p.over.Len() / 4
	if margin < 1 {
		margin = 1
	}
	switch {
	case betterSpatial > betterLRU:
		// The spatial strategy would have kept many pages ahead of the
		// page that was actually re-requested: LRU judged better. Shrink
		// twice as fast as growing: robustness (never losing badly to
		// LRU) is the design goal, and the deflated better-spatial count
		// means each shrink signal is strong evidence.
		p.resize(clamp(p.cand-2*p.step, 1, p.mainCap))
	case betterLRU > betterSpatial+margin:
		// LRU would have kept clearly more pages ahead of the
		// re-requested page: the spatial strategy judged better.
		p.resize(clamp(p.cand+p.step, 1, p.mainCap))
	}
	p.adaptations++
	// One Adapt event per adaptation event, even when the size is
	// unchanged: the paper counts overflow hits as adaptation events, and
	// Fig. 14 plots one sample per event.
	ctx.Adapt(obs.AdaptEvent{OldC: oldC, NewC: p.cand})
}

// pushFront links f at main's front with the next insertion number as
// its Stamp. While the window spans all of main, f joins it.
func (p *ASB) pushFront(f *buffer.Frame) {
	p.seq++
	f.Stamp = p.seq
	p.main.PushFront(f)
	if p.edge != nil && p.win.Len() < p.cand {
		p.win.Push(f)
		p.edge = f
	}
}

// unlink removes f from main. A window frame that leaves is replaced by
// the frame in front of the window, if main has one.
func (p *ASB) unlink(f *buffer.Frame) {
	if f.Slot >= 0 {
		if p.win.Len() < p.main.Len() {
			p.edge = p.main.Prev(p.edge)
			p.win.Replace(f.Slot, p.edge)
		} else {
			if f == p.edge {
				p.edge = p.main.Next(f)
			}
			p.win.Remove(f.Slot)
		}
	}
	p.main.Remove(f)
}

// resize sets the candidate-set size and moves the window's edge to match.
func (p *ASB) resize(c int) {
	p.cand = c
	if p.edge == nil {
		return
	}
	for p.win.Len() < c && p.win.Len() < p.main.Len() {
		p.edge = p.main.Prev(p.edge)
		p.win.Push(p.edge)
	}
	for p.win.Len() > c {
		f := p.edge
		p.edge = p.main.Next(f)
		p.win.Remove(f.Slot)
	}
}

// rebalance demotes main-part SLRU victims into the overflow buffer until
// the main part is within its share. Pinned pages are never demoted.
func (p *ASB) rebalance() {
	for p.main.Len() > p.mainCap {
		v := p.demotee()
		if v == nil {
			return // everything pinned; tolerate a temporarily oversized main part
		}
		p.unlink(v)
		v.Tag = asbOver
		p.over.PushBack(v)
	}
}

// demotee is the main part's SLRU victim: the window's minimum, built
// here if it is not kept yet. Pins are invisible to the window, so when
// its minimum is pinned, slruVictim's scan decides.
func (p *ASB) demotee() *buffer.Frame {
	if p.edge == nil {
		for f := p.main.Back(); f != nil && p.win.Len() < p.cand; f = p.main.Prev(f) {
			p.win.Push(f)
			p.edge = f
		}
	}
	if v := p.win.Min(); !v.Pinned() {
		return v
	}
	v, _, _ := slruVictim(&p.main, p.cand)
	return v
}

// Victim implements buffer.Policy: the FIFO head of the overflow buffer.
// If the overflow buffer is empty (or fully pinned) the main part's SLRU
// victim (slruVictim over the cand least recently used) is evicted
// directly.
func (p *ASB) Victim(ctx buffer.AccessContext) buffer.Choice {
	kind := p.crit.String()
	if f, rank := firstUnpinned(&p.over, true); f != nil {
		return buffer.Choice{Frame: f, Reason: obs.ReasonASBOverflow, CritKind: kind, Win: f.Crit, Rank: rank}
	}
	f, rank, worst := slruVictim(&p.main, p.cand)
	c := buffer.Choice{Frame: f, Reason: obs.ReasonASBMain, CritKind: kind, Lose: worst, Rank: rank}
	if f != nil {
		c.Win = f.Crit
	}
	return c
}

// OnEvict implements buffer.Policy.
func (p *ASB) OnEvict(f *buffer.Frame) {
	if f.Tag == asbOver {
		p.over.Remove(f)
	} else {
		p.unlink(f)
	}
}

// Reset implements buffer.Policy: both parts are cleared and the
// candidate-set size returns to its initial value.
func (p *ASB) Reset() {
	p.main.Clear()
	p.over.Clear()
	p.win.Clear()
	p.edge = nil
	p.cand = p.initCand
	p.adaptations = 0
}

// OnUpdate implements buffer.Updater: the cached criterion is refreshed
// and the page treated as used. A write to an overflow page promotes it
// back to the main part WITHOUT adapting the candidate size — §4.2's
// adaptation signal is defined for re-*references*, and an update is not
// evidence about which read strategy judged the page correctly.
func (p *ASB) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	over := f.Tag == asbOver
	if over {
		p.over.Remove(f)
	} else {
		p.unlink(f)
	}
	f.Crit = p.crit.Value(f.Meta)
	f.Tag = asbMain
	p.pushFront(f)
	if over {
		p.rebalance()
	}
}
