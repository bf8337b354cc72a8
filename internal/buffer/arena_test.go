package buffer

import (
	"testing"

	"repro/internal/page"
)

// live counts the frames of a that are allocated, through Alloc and Free
// alone: it takes every free frame and hands them back in reverse, which
// leaves the free-list as it found it.
func live(a *Arena) int {
	var took []*Frame
	for f := a.Alloc(); f != nil; f = a.Alloc() {
		took = append(took, f)
	}
	for i := len(took) - 1; i >= 0; i-- {
		a.Free(took[i])
	}
	return len(a.frames) - len(took)
}

func TestArenaAllocFreeRecycle(t *testing.T) {
	a := NewArena(3)
	if live(a) != 0 {
		t.Fatalf("fresh arena: live %d", live(a))
	}

	f0 := a.Alloc()
	f1 := a.Alloc()
	f2 := a.Alloc()
	if f0 == nil || f1 == nil || f2 == nil {
		t.Fatal("alloc returned nil with free frames")
	}
	if a.Alloc() != nil {
		t.Fatal("alloc past capacity did not return nil")
	}
	if live(a) != 3 {
		t.Fatalf("live = %d", live(a))
	}
	if f0.arenaIndex() != 0 || f1.arenaIndex() != 1 || f2.arenaIndex() != 2 {
		t.Fatalf("slot order: %d %d %d", f0.arenaIndex(), f1.arenaIndex(), f2.arenaIndex())
	}

	// Dirty a frame, free it, and check the next alloc of the slot is
	// scrubbed but keeps its slot tag.
	f1.Meta.ID = 42
	f1.Dirty = true
	f1.Tag = 7
	f1.Crit = 1.5
	f1.pins = 2
	a.Free(f1)
	if live(a) != 2 {
		t.Fatalf("live after free = %d", live(a))
	}
	g := a.Alloc()
	if g != f1 {
		t.Fatal("free-list did not recycle the freed slot")
	}
	if g.Meta.ID != 0 || g.Dirty || g.Tag != 0 || g.Crit != 0 || g.Pinned() {
		t.Fatalf("recycled frame not scrubbed: %+v", g)
	}
	if g.arenaIndex() != 1 {
		t.Fatalf("recycled frame lost its slot: %d", g.arenaIndex())
	}
}

func TestArenaIgnoresForeignFrames(t *testing.T) {
	a := NewArena(2)
	f := a.Alloc()

	// Hand-made frames report -1 and are ignored by Free.
	hand := &Frame{Meta: page.Meta{ID: 9}}
	if hand.arenaIndex() != -1 {
		t.Fatalf("hand-made arenaIndex = %d", hand.arenaIndex())
	}
	a.Free(hand)
	a.Free(nil)
	if live(a) != 1 {
		t.Fatalf("foreign free changed occupancy: live = %d", live(a))
	}

	// A frame from another arena is ignored too (its slot tag points into
	// the other arena's table).
	b := NewArena(2)
	fb := b.Alloc()
	a.Free(fb)
	if live(a) != 1 || live(b) != 1 {
		t.Fatalf("cross-arena free changed occupancy: a %d b %d", live(a), live(b))
	}
	_ = f
}

func TestArenaReset(t *testing.T) {
	a := NewArena(4)
	for i := 0; i < 4; i++ {
		f := a.Alloc()
		f.Meta.ID = page.ID(i + 1)
	}
	a.reset()
	if live(a) != 0 {
		t.Fatalf("live after reset = %d", live(a))
	}
	// Deterministic refill order: slot 0 first.
	for i := 0; i < 4; i++ {
		f := a.Alloc()
		if f == nil || f.arenaIndex() != int32(i) {
			t.Fatalf("post-reset alloc %d returned slot %v", i, f.arenaIndex())
		}
		if f.Meta.ID != 0 {
			t.Fatalf("post-reset frame not scrubbed: %+v", f)
		}
	}
}

// TestEngineArenaSteadyState pins the recycling invariant at the manager
// level: after the buffer warms up, the arena's live count tracks
// residency exactly and never exceeds capacity.
func TestEngineArenaSteadyState(t *testing.T) {
	s := newStore(t, 32)
	m, err := NewEngine(s, newTestPolicy(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := page.ID(i%32 + 1)
		if _, err := m.Get(id, AccessContext{QueryID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if got := live(m.arena); got != m.Len() {
			t.Fatalf("after %d requests: arena live %d != resident %d", i+1, got, m.Len())
		}
	}
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if live(m.arena) != 0 {
		t.Fatalf("arena live after Clear = %d", live(m.arena))
	}
	// The manager must be fully usable after the reset.
	if _, err := m.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if live(m.arena) != 1 {
		t.Fatalf("arena live after post-Clear get = %d", live(m.arena))
	}
}
