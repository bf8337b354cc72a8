package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// SLRU is the static combination of LRU and a spatial strategy (paper
// §4.1): LRU computes a candidate set — the candSize least recently used
// pages — and the spatial criterion picks the victim from it (minimum
// criterion, LRU tie-break). candSize interpolates between pure LRU
// (candSize = 1) and the pure spatial policy (candSize = buffer size).
//
// Frames ride a recency buffer.List through their own link words; the
// criterion is cached in Frame.Crit at admission, so the candidate scan
// reads one float per inspected frame and nothing on the request path
// allocates.
type SLRU struct {
	crit     page.Criterion
	candSize int
	// order is the recency list, front = most recently used.
	order buffer.List
}

// NewSLRU returns an SLRU policy with a fixed candidate-set size of
// candSize frames (≥ 1).
func NewSLRU(crit page.Criterion, candSize int) *SLRU {
	if candSize < 1 {
		panic(fmt.Sprintf("core: SLRU candidate size must be ≥ 1, got %d", candSize))
	}
	return &SLRU{crit: crit, candSize: candSize}
}

// Name implements buffer.Policy.
func (p *SLRU) Name() string { return fmt.Sprintf("SLRU(%s,%d)", p.crit, p.candSize) }

// CandidateSize returns the fixed candidate-set size.
func (p *SLRU) CandidateSize() int { return p.candSize }

// OnAdmit implements buffer.Policy.
func (p *SLRU) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	p.order.PushFront(f)
}

// OnHit implements buffer.Policy.
func (p *SLRU) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.order.MoveToFront(f)
}

// firstUnpinned scans a policy list from its eviction end — the back of
// a recency list, the front of an admission queue (fromFront) — for the
// first unpinned frame. It returns the frame with its rank, the number
// of pinned frames skipped, or (nil, -1) when every frame is pinned.
func firstUnpinned(l *buffer.List, fromFront bool) (*buffer.Frame, int) {
	f := l.Back()
	if fromFront {
		f = l.Front()
	}
	for rank := 0; f != nil; rank++ {
		if !f.Pinned() {
			return f, rank
		}
		if fromFront {
			f = l.Next(f)
		} else {
			f = l.Prev(f)
		}
	}
	return nil, -1
}

// slruVictim is the §4.1 selection over a recency list (front = most
// recently used): the unpinned frame with the smallest cached criterion
// among the cand least recently used; scanning from the LRU end keeps
// ties on the older page. If the candidate set holds no unpinned frame the
// scan continues past it (degrading to LRU) rather than failing. It also
// returns the victim's rank from the LRU end (0 = least recently used,
// -1 without a victim) and the largest (worst, i.e. best-to-keep)
// criterion among the scanned unpinned candidates — the value the victim
// "won" against in its buffer.Choice. SLRU evicts this frame; ASB, whose
// main part is an SLRU (§4.2), demotes it.
func slruVictim(order *buffer.List, cand int) (*buffer.Frame, int, float64) {
	var best *buffer.Frame
	var bestCrit, worstCrit float64
	bestRank := -1
	seen := 0
	for f := order.Back(); f != nil; f = order.Prev(f) {
		seen++
		if !f.Pinned() {
			c := f.Crit
			if best == nil || c < bestCrit {
				best, bestCrit, bestRank = f, c, seen-1
			}
			if c > worstCrit {
				worstCrit = c
			}
		}
		if seen >= cand && best != nil {
			break
		}
	}
	return best, bestRank, worstCrit
}

// Victim implements buffer.Policy: the slruVictim of the whole buffer.
func (p *SLRU) Victim(ctx buffer.AccessContext) buffer.Choice {
	best, rank, worst := slruVictim(&p.order, p.candSize)
	c := buffer.Choice{Frame: best, Reason: obs.ReasonSLRU, CritKind: p.crit.String(), Lose: worst, Rank: rank}
	if best != nil {
		c.Win = best.Crit
	}
	return c
}

// OnEvict implements buffer.Policy.
func (p *SLRU) OnEvict(f *buffer.Frame) { p.order.Remove(f) }

// Reset implements buffer.Policy.
func (p *SLRU) Reset() { p.order.Clear() }

// OnUpdate implements buffer.Updater: refresh the cached criterion and
// the recency position.
func (p *SLRU) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	p.order.MoveToFront(f)
}
