package buffer

// Arena is a fixed pre-allocated table of Frames with a free-list: the
// frame-recycling substrate behind an Engine (one arena per engine, so
// one per pool shard). All frames an engine ever serves come from its
// arena, so steady-state admission and eviction perform zero heap
// allocations — a miss pops a scrubbed frame off the free-list and an
// eviction pushes the victim back.
//
// Recycling is safe because frames never escape the engine's
// serialization: the Pool implementations return *page.Page to callers,
// never *Frame, and every frame access (policy callbacks, write-back
// enqueue) happens under the shard's lock before the frame is freed.
//
// An arena frame carries its own slot index (ArenaIndex), which the
// tracing layer reports on victim-select spans. Frames constructed
// outside an arena (tests drive policies with hand-made frames) report
// index -1 and are ignored by Free, so policies never need to know where
// a frame came from.
type Arena struct {
	frames []Frame
	free   []int32 // stack of free slot indices
}

// NewArena returns an arena of capacity frames, all free.
func NewArena(capacity int) *Arena {
	a := &Arena{
		frames: make([]Frame, capacity),
		free:   make([]int32, 0, capacity),
	}
	a.Reset()
	return a
}

// Alloc pops a scrubbed frame off the free-list, or returns nil when the
// arena is exhausted. The returned frame is zero-valued apart from its
// arena slot tag and its Slot, −1 (in no heap).
func (a *Arena) Alloc() *Frame {
	n := len(a.free)
	if n == 0 {
		return nil
	}
	i := a.free[n-1]
	a.free = a.free[:n-1]
	f := &a.frames[i]
	*f = Frame{arena: i + 1, Slot: -1}
	return f
}

// Free scrubs f and returns it to the free-list. Frames that did not come
// from this arena (hand-made test frames, the defensive heap fallback)
// are ignored, as is nil. The scrub clears page pointer, link words and
// policy scratch, so a bug that touches a freed frame reads zeroes, not a
// stale neighbor.
func (a *Arena) Free(f *Frame) {
	if f == nil || f.arena == 0 {
		return
	}
	i := f.arena - 1
	if int(i) >= len(a.frames) || &a.frames[i] != f {
		return // not ours
	}
	*f = Frame{arena: f.arena, Slot: -1}
	a.free = append(a.free, i)
}

// Reset scrubs every frame and rebuilds the free-list (all frames free).
// Slot 0 is allocated first, so a cleared manager refills its arena in
// deterministic order.
func (a *Arena) Reset() {
	for i := range a.frames {
		a.frames[i] = Frame{arena: int32(i) + 1, Slot: -1}
	}
	a.free = a.free[:0]
	for i := len(a.frames) - 1; i >= 0; i-- {
		a.free = append(a.free, int32(i))
	}
}
