package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// LRUK is the LRU-K page-replacement algorithm of O'Neil, O'Neil and
// Weikum, as described in §2.2 of the paper. For every page p it records
// HIST(p), the time stamps of the K most recent uncorrelated references;
// the victim is the unpinned page with the oldest HIST(q,K) among pages
// whose last reference is not correlated with the current access.
//
// Two accesses are correlated iff they belong to the same query. The
// history survives eviction — the paper's "essential disadvantage": the
// number of retained records grows with the number of distinct pages ever
// buffered, not with the buffer size. Following the Retained Information
// Period of the original LRU-K paper, retention is bounded: once the
// record table reaches RetentionBound() (a multiple of the peak resident
// set), the history of the longest-unrefreshed non-resident page is
// recycled instead of growing the table, so long replays stop growing
// memory monotonically. HistRecords and HistBytes expose the retained
// cost for the memory comparison against ASB in the evaluation.
//
// Layout: histories live in a flat record table plus one contiguous
// time-stamp slab (K stamps per record); resident frames carry their
// record index in Frame.Tag and are threaded onto a residency
// buffer.List. Steady-state touches and victim scans allocate nothing.
type LRUK struct {
	k        int
	resident buffer.List

	// hist maps a page to its record index in recs.
	hist map[page.ID]int32
	// recs[i] describes one retained history; its K time stamps are
	// times[i*k : (i+1)*k].
	recs  []histRec
	times []uint64
	// hand is the sweep position of the retention reclaim.
	hand int
	// peak is the high-water mark of the resident set, the base of the
	// retention bound.
	peak int
}

// histRec is the retained reference history of one page.
type histRec struct {
	// id is the page this record describes (the reverse of the hist map,
	// needed by the reclaim sweep).
	id page.ID
	// lastQuery is the query that made the most recent reference, used
	// to detect correlated accesses.
	lastQuery uint64
	// resident marks records whose page is currently buffered; those are
	// never reclaimed.
	resident bool
}

// lrukMinRetention is the retention-bound floor: tables smaller than this
// never reclaim, so short traces keep their full history (and the
// paper-scale unit tests see the unbounded behavior).
const lrukMinRetention = 64

// lrukRetentionFactor scales the peak resident set into the retention
// bound — the Retained Information Period expressed in records instead of
// time: histories survive roughly that many times longer than a
// residence.
const lrukRetentionFactor = 16

// NewLRUK returns an LRU-K policy. K must be ≥ 1; LRU-1 degenerates to
// LRU with correlated-reference collapsing.
func NewLRUK(k int) *LRUK {
	if k < 1 {
		panic(fmt.Sprintf("core: LRU-K needs K ≥ 1, got %d", k))
	}
	return &LRUK{
		k:    k,
		hist: make(map[page.ID]int32),
	}
}

// Name implements buffer.Policy.
func (p *LRUK) Name() string { return fmt.Sprintf("LRU-%d", p.k) }

// RetentionBound returns the maximum number of history records retained
// before the oldest non-resident history is recycled.
func (p *LRUK) RetentionBound() int {
	b := lrukRetentionFactor * p.peak
	if b < lrukMinRetention {
		b = lrukMinRetention
	}
	return b
}

// timesOf returns record ri's K time stamps: times[0] is HIST(p,1), the
// most recent uncorrelated reference; times[k-1] is HIST(p,K). Zero means
// "no such reference yet".
func (p *LRUK) timesOf(ri int32) []uint64 {
	o := int(ri) * p.k
	return p.times[o : o+p.k : o+p.k]
}

// record returns the record index for id, creating (or reclaiming) one if
// the page has no retained history.
func (p *LRUK) record(id page.ID) int32 {
	if ri, ok := p.hist[id]; ok {
		return ri
	}
	ri := p.allocRec()
	p.recs[ri] = histRec{id: id}
	t := p.timesOf(ri)
	for i := range t {
		t[i] = 0
	}
	p.hist[id] = ri
	return ri
}

// allocRec returns a free record slot: growing the table while it is
// under the retention bound, otherwise recycling the first non-resident
// record the sweep hand finds (approximately the longest-unrefreshed
// retained history, since records are created and refreshed in table
// order only on first touch).
func (p *LRUK) allocRec() int32 {
	if len(p.recs) < p.RetentionBound() {
		p.recs = append(p.recs, histRec{})
		for i := 0; i < p.k; i++ {
			p.times = append(p.times, 0)
		}
		return int32(len(p.recs) - 1)
	}
	for range p.recs {
		p.hand++
		if p.hand >= len(p.recs) {
			p.hand = 0
		}
		if !p.recs[p.hand].resident {
			delete(p.hist, p.recs[p.hand].id)
			return int32(p.hand)
		}
	}
	// Every record resident: the bound (≥ factor × peak residents) makes
	// this unreachable, but grow rather than fail if it ever happens.
	p.recs = append(p.recs, histRec{})
	for i := 0; i < p.k; i++ {
		p.times = append(p.times, 0)
	}
	return int32(len(p.recs) - 1)
}

// touch records a reference to record ri at time now by query q,
// collapsing correlated references (paper §2.2, cases 1 and 2).
func (p *LRUK) touch(ri int32, now, q uint64) {
	rec := &p.recs[ri]
	t := p.timesOf(ri)
	if rec.lastQuery == q && t[0] != 0 {
		// Correlated with the most recent reference: replace HIST(p,1).
		t[0] = now
		return
	}
	// Uncorrelated: shift the history and insert the new HIST(p,1).
	copy(t[1:], t)
	t[0] = now
	rec.lastQuery = q
}

// OnAdmit implements buffer.Policy.
func (p *LRUK) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	ri := p.record(f.Meta.ID)
	p.recs[ri].resident = true
	f.Tag = uint32(ri)
	p.resident.PushFront(f)
	if n := p.resident.Len(); n > p.peak {
		p.peak = n
	}
	p.touch(ri, now, ctx.QueryID)
}

// OnHit implements buffer.Policy. The frame's Tag already names its
// history record, so a hit touches the flat table without a map lookup.
func (p *LRUK) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.touch(int32(f.Tag), now, ctx.QueryID)
}

// Victim implements buffer.Policy. Among unpinned pages whose most recent
// reference is not correlated with the current access, it picks the one
// with the oldest HIST(q,K); pages with fewer than K recorded references
// rank oldest (HIST(q,K) = 0). Ties break on the older HIST(q,1). If every
// page is correlated with the current query, the restriction is dropped
// (otherwise a buffer smaller than one query's working set could never
// evict) — one of the "special cases" footnote 2 of the paper leaves open.
// The choice's deciding value is the victim's HIST(q,K), the backward
// K-distance it was ranked by; it has no rank (history order, not
// recency order).
func (p *LRUK) Victim(ctx buffer.AccessContext) buffer.Choice {
	c := buffer.Choice{Reason: obs.ReasonLRUK, CritKind: "hist-k", Rank: -1}
	c.Frame = p.victim(ctx, true)
	if c.Frame == nil {
		c.Frame = p.victim(ctx, false)
	}
	if c.Frame != nil {
		c.Win = float64(p.timesOf(int32(c.Frame.Tag))[p.k-1])
	}
	return c
}

func (p *LRUK) victim(ctx buffer.AccessContext, excludeCorrelated bool) *buffer.Frame {
	var best *buffer.Frame
	var bestK, best1 uint64
	for f := p.resident.Front(); f != nil; f = p.resident.Next(f) {
		if f.Pinned() {
			continue
		}
		ri := int32(f.Tag)
		if excludeCorrelated && p.recs[ri].lastQuery == ctx.QueryID {
			continue
		}
		t := p.timesOf(ri)
		hk := t[p.k-1]
		h1 := t[0]
		if best == nil || hk < bestK || (hk == bestK && h1 < best1) ||
			(hk == bestK && h1 == best1 && f.Meta.ID < best.Meta.ID) {
			best, bestK, best1 = f, hk, h1
		}
	}
	return best
}

// OnEvict implements buffer.Policy. The history record is retained (until
// the retention bound recycles it).
func (p *LRUK) OnEvict(f *buffer.Frame) {
	p.resident.Remove(f)
	p.recs[int32(f.Tag)].resident = false
}

// Reset implements buffer.Policy: it clears residency AND the retained
// histories (a cleared buffer starts cold, as in the paper's
// experiments). The map and the record/stamp slabs are reused, not
// reallocated, so a Clear in a replay loop costs no garbage.
func (p *LRUK) Reset() {
	p.resident.Clear()
	clear(p.hist)
	p.recs = p.recs[:0]
	p.times = p.times[:0]
	p.hand = 0
	p.peak = 0
}

// HistRecords returns the number of retained history records — the count
// of distinct pages ever buffered since the last Reset, capped by the
// retention bound.
func (p *LRUK) HistRecords() int { return len(p.hist) }

// HistBytes estimates the memory held by the retained histories: per
// record K time stamps, the record header (page ID, correlation query,
// residency) and the map entry.
func (p *LRUK) HistBytes() int {
	const perRecordOverhead = 8 /* map key */ + 4 /* map value */ + 24 /* record */
	return len(p.hist) * (perRecordOverhead + 8*p.k)
}
