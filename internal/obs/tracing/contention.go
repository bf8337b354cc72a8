package tracing

import "sync/atomic"

// Contention aggregates shard-lock acquisition costs: cumulative
// lock-wait time, acquisition counts, and the instantaneous number of
// goroutines queued on each shard's lock. Only an acquisition that had
// to wait is measured (BeginWait/EndWait); one that found the lock free
// reports Uncontended — one atomic add, no clock reading. It is the
// aggregate companion of the per-request LockWait span field — the spans
// show individual stalls, the profiler shows which shards are hot
// overall. All methods are safe for concurrent use; the per-shard slots
// are padded so two shards' counters never share a cache line.
type Contention struct {
	shards []contendedShard
}

// contendedShard is one shard's counters, padded to a cache line.
type contendedShard struct {
	waiters  atomic.Int64  // goroutines currently acquiring the lock
	waitNs   atomic.Int64  // cumulative lock-wait nanoseconds
	acquired atomic.Uint64 // completed acquisitions
	_        [5]uint64     // pad to 64 bytes
}

// NewContention returns a profiler for the given shard count (≥ 1).
func NewContention(shards int) *Contention {
	if shards < 1 {
		shards = 1
	}
	return &Contention{shards: make([]contendedShard, shards)}
}

// Shards returns the number of profiled shards.
func (c *Contention) Shards() int { return len(c.shards) }

// BeginWait records that a goroutine started acquiring the shard's
// lock. Pair with EndWait after the lock is held.
func (c *Contention) BeginWait(shard int) {
	c.shards[shard].waiters.Add(1)
}

// EndWait records a completed acquisition that waited for the given
// nanoseconds.
func (c *Contention) EndWait(shard int, waitNs int64) {
	s := &c.shards[shard]
	s.waiters.Add(-1)
	s.waitNs.Add(waitNs)
	s.acquired.Add(1)
}

// Uncontended records an acquisition that found the lock free.
func (c *Contention) Uncontended(shard int) {
	c.shards[shard].acquired.Add(1)
}

// Waiters returns the instantaneous queue depth of the shard's lock:
// goroutines between BeginWait and EndWait (including the one currently
// holding the lock if it has not reported yet).
func (c *Contention) Waiters(shard int) int64 { return c.shards[shard].waiters.Load() }

// WaitNanos returns the cumulative lock-wait time of the shard.
func (c *Contention) WaitNanos(shard int) int64 { return c.shards[shard].waitNs.Load() }

// Acquisitions returns the number of completed lock acquisitions of the
// shard.
func (c *Contention) Acquisitions(shard int) uint64 { return c.shards[shard].acquired.Load() }
