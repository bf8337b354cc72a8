package buffer

import (
	"repro/internal/obs"
	"repro/internal/page"
)

// Pool is the buffer abstraction every consumer programs against: the
// read path (Get/Fix/Unfix), the write path (Put/MarkDirty/Flush), the
// lifecycle (Clear), introspection (Stats/Len/SetSink) and the one door
// to everything else an engine knows (Shards/View). It has two
// implementations:
//
//   - Engine — the bare single-threaded core the paper's experiments
//     use; fastest when one goroutine owns the buffer.
//   - Shared — page.ID-hashed shards, each an engine behind its own
//     latch, for many goroutines: one shard is a single-latch pool, more
//     partition the policy state; with a write-back queue, misses read
//     outside the latch and dirty victims are written in the background.
//
// Composition.Build constructs either from a spec string. rtree queries,
// the trace replayer and the serving commands all accept a Pool, so
// swapping the concurrency model is a constructor change, not a
// call-site change.
type Pool interface {
	// Get requests the page without pinning it (read path).
	Get(id page.ID, ctx AccessContext) (*page.Page, error)
	// Put installs a new page version and marks it dirty (write path).
	Put(p *page.Page, ctx AccessContext) error
	// Fix requests the page and pins its frame; the caller must Unfix.
	Fix(id page.ID, ctx AccessContext) (*page.Page, error)
	// Unfix releases one pin on the page.
	Unfix(id page.ID) error
	// MarkDirty flags a resident page for write-back.
	MarkDirty(id page.ID) error
	// Flush writes back all dirty resident pages without evicting them.
	Flush() error
	// Clear evicts everything, resets policy state and zeroes the stats.
	Clear() error
	// Stats returns a snapshot of the logical access counters. For
	// sharded implementations this is the merge of the per-shard
	// counters (Stats.Add).
	Stats() Stats
	// Len returns the number of resident pages.
	Len() int
	// SetSink attaches an observability sink to the pool and its
	// policies (nil detaches). Sinks attached to concurrent pools must
	// be safe for concurrent use.
	SetSink(s obs.Sink)
	// Shards returns the number of engines behind the pool: 1 for an
	// Engine, and for a Shared pool what it settled on, which a tiny
	// buffer makes fewer than the composition asked for.
	Shards() int
	// View calls f with shard i's engine (0 ≤ i < Shards()) under that
	// shard's serialization — on a shared pool its latch, taken after the
	// hits served latch-free have been replayed — so whatever f reads of
	// the engine, its frames and its policy (Stats, Len, Contains,
	// ResidentIDs, Policy and the policy's own accessors) is one
	// consistent state. f is for reading: it must not call the pool, which
	// would wait for the latch f runs under, and must not keep the engine
	// or its policy past its return.
	View(i int, f func(*Engine))
}

// PolicyFactory constructs a fresh replacement policy sized for a buffer
// of the given capacity (in frames). Policies with capacity-relative
// parameters (SLRU's candidate set, ASB's overflow buffer) derive them
// from the argument, so a sharded pool that calls the factory once per
// shard with the shard's capacity gets correctly scaled per-shard
// instances. core.Factory.New is of this type.
type PolicyFactory func(capacity int) Policy

// Compile-time interface checks: the two implementations of Pool.
var (
	_ Pool = (*Engine)(nil)
	_ Pool = (*Shared)(nil)
)
