// Package shadow implements metadata-only ghost-cache simulators: buffer
// caches that hold no page data — only page IDs, their fixed-size
// spatial descriptors (page.Meta) and replacement-policy state — driven
// by the obs event stream of a real buffer pool. Each shadow cache
// replays the real request sequence against an alternative configuration
// (a different policy at the same capacity, or the same policy at a
// different capacity), so the running system continuously answers two
// questions the paper otherwise answers only by offline replay:
//
//   - What-if policy comparison: would LRU / SLRU / ASB have hit more
//     often on the live traffic? The paper's headline claim — ASB is
//     never worse than LRU on any studied distribution — becomes an
//     observable, alertable metric (the regret gauge of Bank).
//   - Online miss-ratio curve: the real policy simulated at a ladder of
//     capacities (½×, 1×, 2×, 4×) yields the hit ratio as a function of
//     buffer size, the capacity-planning curve, without restarts.
//
// A shadow cache replicates the Engine's admit/hit/evict protocol
// exactly (same logical clock, same callback order, same
// eviction-before-admission sequencing), driving a real buffer.Policy
// instance over ghost frames whose Page pointer stays nil. A shadow LRU
// fed the event stream of a real Engine+LRU therefore matches it
// hit-for-hit — the equivalence the tests pin down.
//
// Shadows see only read-path Request events: the write path (Put) is
// invisible to them, as are the page contents. Events with a zero Meta
// (coalesced waiters on an async pool, failed reads) are replayed with
// criteria unknown — spatial policies then score those pages as minimal.
// See the "Shadow cache contract" section of DESIGN.md for the full
// accuracy and overhead statement.
package shadow

import (
	"math"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/page"
)

// DefaultWindow is the rolling hit-ratio window size, in requests, used
// when a Bank or Cache is built with window ≤ 0.
const DefaultWindow = 4096

// Cache is one ghost cache: a replacement policy simulated over
// metadata-only frames. It is not safe for concurrent use — Bank drives
// its caches under one mutex — but its counters are atomics, so the
// accessor methods (Hits, Misses, HitRatio, WindowHitRatio, Len) may be
// called from any goroutine while the cache is being driven; that is
// the scrape path of the live gauges.
type Cache struct {
	policyName string
	capacity   int
	policy     buffer.Policy

	frames map[page.ID]*buffer.Frame
	// arena pre-allocates the ghost frames: a shadow holds at most
	// capacity frames, so evicted ghosts recycle through the arena
	// free-list and steady-state replay allocates nothing per reference.
	// Ghost frames carry Meta and policy state only — Page stays nil.
	arena *buffer.Arena
	clock uint64

	hits   atomic.Uint64
	misses atomic.Uint64
	len    atomic.Int64

	winSize  uint64
	winReqs  uint64
	winHits  uint64
	winValid atomic.Bool
	winRatio atomic.Uint64 // math.Float64bits of the last completed window's hit ratio
}

// NewCache builds a ghost cache of the given capacity (in frames, ≥ 2 so
// every standard policy constructor accepts it) around a fresh policy
// instance. policyName is the display/label name (the factory name, not
// policy.Name(), so "SLRU 50%" and "SLRU 25%" stay distinguishable).
// window ≤ 0 selects DefaultWindow.
func NewCache(policyName string, policy buffer.Policy, capacity, window int) *Cache {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Cache{
		policyName: policyName,
		capacity:   capacity,
		policy:     policy,
		frames:     make(map[page.ID]*buffer.Frame, capacity),
		arena:      buffer.NewArena(capacity),
		winSize:    uint64(window),
	}
}

// Ref replays one page reference and reports whether it hit. The
// protocol mirrors buffer.Engine exactly: one clock tick per request;
// on a hit, OnHit with the previous LastUse still visible, then the
// LastUse update; on a miss, an eviction (Victim/OnEvict) when the cache
// is full, then admission (OnAdmit) at the request's logical time. meta
// is the referenced page's descriptor from the event stream; a zero Meta
// (criteria unknown) is admitted as-is apart from its ID, which is
// always forced to id so the ghost frame stays addressable.
func (c *Cache) Ref(id page.ID, meta page.Meta, queryID uint64) bool {
	c.clock++
	now := c.clock
	ctx := buffer.AccessContext{QueryID: queryID}
	hit := false
	if f, ok := c.frames[id]; ok {
		hit = true
		c.hits.Add(1)
		c.winHits++
		c.policy.OnHit(f, now, ctx)
		f.LastUse = now
	} else {
		c.misses.Add(1)
		admit := true
		if len(c.frames) >= c.capacity {
			// Ghost frames are never pinned, so Victim returning nil can
			// only mean a broken policy; mirror the Engine (which fails
			// the request with ErrAllPinned) by not admitting.
			if v := c.policy.Victim(ctx).Frame; v != nil {
				delete(c.frames, v.Meta.ID)
				c.policy.OnEvict(v)
				c.arena.Free(v)
			} else {
				admit = false
			}
		}
		if admit {
			meta.ID = id
			f := c.arena.Alloc()
			if f == nil {
				f = &buffer.Frame{Slot: -1} // defensive; capacity bounds residency
			}
			f.Meta = meta
			f.LastUse = now
			c.frames[id] = f
			c.policy.OnAdmit(f, now, ctx)
		}
		c.len.Store(int64(len(c.frames)))
	}
	c.winReqs++
	if c.winReqs >= c.winSize {
		c.winRatio.Store(math.Float64bits(float64(c.winHits) / float64(c.winReqs)))
		c.winValid.Store(true)
		c.winReqs, c.winHits = 0, 0
	}
	return hit
}

// PolicyName returns the label the cache was built with.
func (c *Cache) PolicyName() string { return c.policyName }

// Capacity returns the simulated capacity in frames.
func (c *Cache) Capacity() int { return c.capacity }

// Hits returns the cumulative hit count. Safe to call concurrently with
// Ref.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns the cumulative miss count. Safe to call concurrently
// with Ref.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Requests returns Hits+Misses. Safe to call concurrently with Ref.
func (c *Cache) Requests() uint64 { return c.hits.Load() + c.misses.Load() }

// Len returns the number of ghost-resident pages. Safe to call
// concurrently with Ref.
func (c *Cache) Len() int { return int(c.len.Load()) }

// HitRatio returns the cumulative hit ratio, 0 before any reference.
// Safe to call concurrently with Ref.
func (c *Cache) HitRatio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// WindowHitRatio returns the hit ratio of the most recently completed
// rolling window, falling back to the cumulative ratio until the first
// window completes. Safe to call concurrently with Ref.
func (c *Cache) WindowHitRatio() float64 {
	if c.winValid.Load() {
		return math.Float64frombits(c.winRatio.Load())
	}
	return c.HitRatio()
}

// ResidentIDs returns the ghost-resident page IDs in unspecified order.
// Unlike the counter accessors it reads the frame table, so it must not
// race with Ref — call it only while the cache (or its Bank) is
// quiescent. For tests and offline replay.
func (c *Cache) ResidentIDs() []page.ID {
	ids := make([]page.ID, 0, len(c.frames))
	for id := range c.frames {
		ids = append(ids, id)
	}
	return ids
}
