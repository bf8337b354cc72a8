package buffer

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Layout names the shape of a pool composition.
type Layout string

// The four layouts a Composition can build: bare is a lone Engine;
// locked is a Shared pool of one shard, sharded one of Shards shards,
// and async the same with a background write-back queue (and with it
// singleflight miss I/O outside the shard latch).
const (
	LayoutBare    Layout = "bare"
	layoutLocked  Layout = "locked"
	layoutSharded Layout = "sharded"
	layoutAsync   Layout = "async"
)

// Composition describes a pool as a layout plus its parameters —
// the single construction path behind the -pool flag of cmd/bufserve
// and cmd/spatialbench and the matrix tests. The zero value is not
// valid; start from ParseComposition or set Layout explicitly.
type Composition struct {
	// Layout selects the pool's shape.
	Layout Layout
	// Shards is the shard count for the sharded and async layouts; ≤ 0
	// means one shard per available CPU (GOMAXPROCS). Ignored (and
	// rejected by ParseComposition) for bare and locked layouts.
	Shards int
	// WritebackWorkers is the async layout's number of background
	// writers; zero selects defaultWritebackWorkers. Rejected by
	// ParseComposition for other layouts.
	WritebackWorkers int
}

// The largest numbers a spec may give: each is allocated or started up
// front (bufserve sizes its tracer by the shard count before it builds the
// database), so a typo must fail here. A shard is an engine, a latch, a
// hit ring, a trace ring and a contention slot — 1024 is far above any core
// count a latch per shard pays off at; a write-back worker is a goroutine,
// useless beyond the store's own concurrency.
const (
	maxShards           = 1024
	maxWritebackWorkers = 256
)

// ParseComposition parses a pool composition spec of the form
//
//	layout[,key=value]...
//
// where layout is one of "bare", "locked", "sharded" or "async" and the
// keys are "shards" (sharded/async only) and "wbworkers" (async only).
// Examples: "locked", "sharded,shards=4", "async,shards=8,wbworkers=2".
// Layout and keys are case-insensitive; "shards=0" means one shard per
// CPU. A key given twice and values above maxShards and
// maxWritebackWorkers are rejected.
func ParseComposition(spec string) (Composition, error) {
	parts := strings.Split(spec, ",")
	var c Composition
	switch l := Layout(strings.ToLower(strings.TrimSpace(parts[0]))); l {
	case LayoutBare, layoutLocked, layoutSharded, layoutAsync:
		c.Layout = l
	case "":
		return Composition{}, fmt.Errorf("buffer: empty pool composition spec")
	default:
		return Composition{}, fmt.Errorf("buffer: unknown pool layout %q (want bare, locked, sharded or async)", parts[0])
	}
	seen := make(map[string]bool, len(parts)-1)
	for _, part := range parts[1:] {
		key, val, ok := strings.Cut(part, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		if !ok {
			return Composition{}, fmt.Errorf("buffer: pool composition parameter %q: want key=value", part)
		}
		if seen[key] {
			return Composition{}, fmt.Errorf("buffer: pool composition parameter %q given twice", key)
		}
		seen[key] = true
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return Composition{}, fmt.Errorf("buffer: pool composition parameter %q: want a non-negative integer", part)
		}
		var limit int
		switch key {
		case "shards":
			if c.Layout != layoutSharded && c.Layout != layoutAsync {
				return Composition{}, fmt.Errorf("buffer: shards= applies to sharded and async layouts, not %q", c.Layout)
			}
			c.Shards, limit = n, maxShards
		case "wbworkers":
			if c.Layout != layoutAsync {
				return Composition{}, fmt.Errorf("buffer: wbworkers= applies to the async layout, not %q", c.Layout)
			}
			c.WritebackWorkers, limit = n, maxWritebackWorkers
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
	if (c.Layout == layoutSharded || c.Layout == layoutAsync) && c.Shards > 0 {
		fmt.Fprintf(&b, ",shards=%d", c.Shards)
	}
	if c.Layout == layoutAsync && c.WritebackWorkers > 0 {
		fmt.Fprintf(&b, ",wbworkers=%d", c.WritebackWorkers)
	}
	return b.String()
}

// ShardCount returns the number of shards the composition asks for: 1
// for the bare and locked layouts, Shards for sharded and async, or one
// per available CPU (GOMAXPROCS, at most maxShards) when Shards is left
// at 0. Build passes it to the pool, which may still clamp it for a tiny
// buffer; the commands size their tracer's rings by it before the pool
// exists (a clamped pool leaves the trailing rings empty).
func (c Composition) ShardCount() int {
	if c.Layout != layoutSharded && c.Layout != layoutAsync {
		return 1
	}
	if c.Shards > 0 {
		return c.Shards
	}
	return min(runtime.GOMAXPROCS(0), maxShards)
}

// Build constructs the described pool of the given total capacity (in
// frames) over the store, with policy instances from the factory (one
// per shard). The concrete type behind the returned Pool is *Engine for
// the bare layout and *Shared for the others; a Shared pool implements
// interface{ Close() error } (for sharded and locked pools a flush, for
// async ones also the end of the writer goroutines), so callers can
// close any shared composition uniformly.
func (c Composition) Build(store storage.Store, factory PolicyFactory, capacity int) (Pool, error) {
	var wb *writeback
	switch c.Layout {
	case LayoutBare:
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
		return e, nil
	case layoutLocked, layoutSharded:
	case layoutAsync:
		wb = newWriteback(store, c.WritebackWorkers, defaultWritebackQueue)
	default:
		return nil, fmt.Errorf("buffer: unknown pool layout %q", c.Layout)
	}
	s, err := newShared(store, factory, capacity, c.ShardCount(), wb)
	if err != nil {
		if wb != nil {
			wb.close()
		}
		return nil, err
	}
	return s, nil
}
