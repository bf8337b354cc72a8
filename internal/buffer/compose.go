package buffer

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Layout names the layer stack of a pool composition.
type Layout string

// The four layer stacks a Composition can build. Each adds one layer
// over the previous: bare is a lone Engine, locked adds the mutex
// layer, sharded adds the page-hash router over locked engines, async
// adds singleflight miss I/O and background write-back over the router.
const (
	LayoutBare    Layout = "bare"
	LayoutLocked  Layout = "locked"
	LayoutSharded Layout = "sharded"
	LayoutAsync   Layout = "async"
)

// Composition describes a pool as a layer stack plus its parameters —
// the single construction path behind the -pool flag of cmd/bufserve
// and cmd/spatialbench and the matrix tests. The zero value is not
// valid; start from ParseComposition or set Layout explicitly.
type Composition struct {
	// Layout selects the layer stack.
	Layout Layout
	// Shards is the shard count for the sharded and async layouts; ≤ 0
	// means one shard per available CPU (GOMAXPROCS). Ignored (and
	// rejected by ParseComposition) for bare and locked layouts.
	Shards int
	// WritebackWorkers and WritebackQueue tune the async layout's
	// background write-back; zero selects DefaultWritebackWorkers and
	// DefaultWritebackQueue. Rejected by ParseComposition for other
	// layouts.
	WritebackWorkers int
	WritebackQueue   int
}

// The largest numbers a spec may give: each is allocated or started up
// front (bufserve sizes its tracer by the shard count before it builds the
// database), so a typo must fail here. A shard is an engine, a latch, a
// hit ring, a trace ring and a contention slot — 1024 is far above any core
// count a latch per shard pays off at; a write-back worker is a goroutine,
// useless beyond the store's own concurrency; the queue is a channel of
// page IDs made at full size — 8 MiB, more pages than any buffer here has.
const (
	maxShards           = 1024
	maxWritebackWorkers = 256
	maxWritebackQueue   = 1 << 20
)

// ParseComposition parses a pool composition spec of the form
//
//	layout[,key=value]...
//
// where layout is one of "bare", "locked", "sharded" or "async" and the
// keys are "shards" (sharded/async only), "wbworkers" and "wbqueue"
// (async only). Examples: "locked", "sharded,shards=4",
// "async,shards=8,wbworkers=2,wbqueue=256". Layout and keys are
// case-insensitive; "shards=0" means one shard per CPU. Values above
// maxShards, maxWritebackWorkers and maxWritebackQueue are rejected.
func ParseComposition(spec string) (Composition, error) {
	parts := strings.Split(spec, ",")
	var c Composition
	switch l := Layout(strings.ToLower(strings.TrimSpace(parts[0]))); l {
	case LayoutBare, LayoutLocked, LayoutSharded, LayoutAsync:
		c.Layout = l
	case "":
		return Composition{}, fmt.Errorf("buffer: empty pool composition spec")
	default:
		return Composition{}, fmt.Errorf("buffer: unknown pool layout %q (want bare, locked, sharded or async)", parts[0])
	}
	for _, part := range parts[1:] {
		key, val, ok := strings.Cut(part, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		if !ok {
			return Composition{}, fmt.Errorf("buffer: pool composition parameter %q: want key=value", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return Composition{}, fmt.Errorf("buffer: pool composition parameter %q: want a non-negative integer", part)
		}
		var limit int
		switch key {
		case "shards":
			if c.Layout != LayoutSharded && c.Layout != LayoutAsync {
				return Composition{}, fmt.Errorf("buffer: shards= applies to sharded and async layouts, not %q", c.Layout)
			}
			c.Shards, limit = n, maxShards
		case "wbworkers":
			if c.Layout != LayoutAsync {
				return Composition{}, fmt.Errorf("buffer: wbworkers= applies to the async layout, not %q", c.Layout)
			}
			c.WritebackWorkers, limit = n, maxWritebackWorkers
		case "wbqueue":
			if c.Layout != LayoutAsync {
				return Composition{}, fmt.Errorf("buffer: wbqueue= applies to the async layout, not %q", c.Layout)
			}
			c.WritebackQueue, limit = n, maxWritebackQueue
		default:
			return Composition{}, fmt.Errorf("buffer: unknown pool composition parameter %q", key)
		}
		if n > limit {
			return Composition{}, fmt.Errorf("buffer: pool composition parameter %q: at most %d", part, limit)
		}
	}
	return c, nil
}

// String renders the composition in ParseComposition's grammar,
// omitting parameters left at their defaults.
func (c Composition) String() string {
	var b strings.Builder
	b.WriteString(string(c.Layout))
	if (c.Layout == LayoutSharded || c.Layout == LayoutAsync) && c.Shards > 0 {
		fmt.Fprintf(&b, ",shards=%d", c.Shards)
	}
	if c.Layout == LayoutAsync {
		if c.WritebackWorkers > 0 {
			fmt.Fprintf(&b, ",wbworkers=%d", c.WritebackWorkers)
		}
		if c.WritebackQueue > 0 {
			fmt.Fprintf(&b, ",wbqueue=%d", c.WritebackQueue)
		}
	}
	return b.String()
}

// ShardCount returns the number of shards the composition asks for: 1
// for the bare and locked layouts, Shards for sharded and async, or one
// per available CPU (GOMAXPROCS, at most maxShards) when Shards is left
// at 0. Build passes it to NewRouter, which may still clamp it for a tiny
// buffer; the commands size their tracer's rings by it before the pool
// exists (a clamped pool leaves the trailing rings empty).
func (c Composition) ShardCount() int {
	if c.Layout != LayoutSharded && c.Layout != LayoutAsync {
		return 1
	}
	if c.Shards > 0 {
		return c.Shards
	}
	return min(runtime.GOMAXPROCS(0), maxShards)
}

// Build constructs the described pool of the given total capacity (in
// frames) over the store, with policy instances from the factory (one
// for bare/locked, one per shard for sharded/async). The concrete type
// behind the returned Pool is *Engine, *LockedEngine, *Router or
// *AsyncPool according to the layout; async pools implement
// interface{ Close() error } and should be closed to stop their writer
// goroutines (Router does too, as a flush, so callers can close any
// composition uniformly).
func (c Composition) Build(store storage.Store, factory PolicyFactory, capacity int) (Pool, error) {
	switch c.Layout {
	case LayoutBare, LayoutLocked:
		if factory == nil {
			return nil, fmt.Errorf("buffer: nil policy factory")
		}
		pol := factory(capacity)
		if pol == nil {
			return nil, fmt.Errorf("buffer: policy factory returned nil")
		}
		e, err := NewEngine(store, pol, capacity)
		if err != nil {
			return nil, err
		}
		if c.Layout == LayoutBare {
			return e, nil
		}
		return Lock(e), nil
	case LayoutSharded, LayoutAsync:
		r, err := NewRouter(store, factory, capacity, c.ShardCount())
		if err != nil {
			return nil, err
		}
		if c.Layout == LayoutSharded {
			return r, nil
		}
		return Async(r, c.WritebackWorkers, c.WritebackQueue), nil
	default:
		return nil, fmt.Errorf("buffer: unknown pool layout %q", c.Layout)
	}
}
