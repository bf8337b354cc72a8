package buffer

import (
	"container/heap"
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// frame returns a hand-made frame named by its Tag, in no heap.
func frame(tag int) *Frame { return &Frame{Tag: uint32(tag), Slot: -1} }

// tags lists the frames of l front to back (back to front with rev).
func tags(l *List, rev bool) []int {
	var out []int
	f := l.Front()
	if rev {
		f = l.Back()
	}
	for f != nil {
		out = append(out, int(f.Tag))
		if rev {
			f = l.Prev(f)
		} else {
			f = l.Next(f)
		}
	}
	return out
}

func TestListBasicOps(t *testing.T) {
	var l List
	fs := []*Frame{frame(1), frame(2), frame(3), frame(4)}

	l.PushFront(fs[0]) // [1]
	l.PushBack(fs[1])  // [1 2]
	l.PushFront(fs[2]) // [3 1 2]
	if got := tags(&l, false); !slices.Equal(got, []int{3, 1, 2}) {
		t.Fatalf("after pushes: %v", got)
	}
	if got := tags(&l, true); !slices.Equal(got, []int{2, 1, 3}) {
		t.Fatalf("backward walk: %v", got)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}

	l.InsertBefore(fs[3], fs[1]) // [3 1 4 2]
	if got := tags(&l, false); !slices.Equal(got, []int{3, 1, 4, 2}) {
		t.Fatalf("after InsertBefore: %v", got)
	}

	l.MoveToFront(fs[1]) // [2 3 1 4]
	if got := tags(&l, false); !slices.Equal(got, []int{2, 3, 1, 4}) {
		t.Fatalf("after MoveToFront: %v", got)
	}

	l.Remove(fs[3]) // [2 3 1]
	if fs[3].listed {
		t.Fatal("removed frame still listed")
	}
	if got := tags(&l, false); !slices.Equal(got, []int{2, 3, 1}) {
		t.Fatalf("after remove: %v", got)
	}

	l.Clear()
	if l.Len() != 0 || l.Front() != nil || l.Back() != nil {
		t.Fatal("Clear left residue")
	}
	for _, f := range fs {
		if f.listed || f.prev != nil || f.next != nil {
			t.Fatalf("frame %d still linked after Clear", f.Tag)
		}
	}
	// Cleared frames are immediately reusable.
	l.PushBack(fs[0])
	if got := tags(&l, false); !slices.Equal(got, []int{1}) {
		t.Fatalf("reuse after Clear: %v", got)
	}
}

func TestListEdgeCases(t *testing.T) {
	var l List
	a, b := frame(1), frame(2)

	// Single-frame front/back identity and removal.
	l.PushBack(a)
	if l.Front() != a || l.Back() != a {
		t.Fatal("single frame not both front and back")
	}
	l.MoveToFront(a)
	l.Remove(a)
	if l.Len() != 0 {
		t.Fatal("remove of only frame")
	}

	// InsertBefore the head degrades to PushFront.
	l.PushBack(a)
	l.InsertBefore(b, a)
	if got := tags(&l, false); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("InsertBefore head: %v", got)
	}
}

func TestListPanicsOnMisuse(t *testing.T) {
	var l, other List
	a := frame(1)
	l.PushBack(a)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("double PushBack", func() { l.PushBack(a) })
	mustPanic("double PushFront", func() { l.PushFront(a) })
	mustPanic("PushFront onto a second list", func() { other.PushFront(a) })
	mustPanic("Remove of non-member", func() { l.Remove(frame(2)) })
}

// TestListMatchesContainerList drives a List and container/list through
// the same random operation sequence and compares contents after every
// step.
func TestListMatchesContainerList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var il List
	cl := list.New()
	elems := map[*Frame]*list.Element{}
	var members []*Frame
	next := 0

	contents := func() []int {
		var want []int
		for e := cl.Front(); e != nil; e = e.Next() {
			want = append(want, e.Value.(int))
		}
		return want
	}
	pick := func() *Frame { return members[rng.Intn(len(members))] }
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(6); {
		case op == 0 || len(members) == 0:
			f := frame(next)
			next++
			if rng.Intn(2) == 0 {
				il.PushFront(f)
				elems[f] = cl.PushFront(int(f.Tag))
			} else {
				il.PushBack(f)
				elems[f] = cl.PushBack(int(f.Tag))
			}
			members = append(members, f)
		case op == 1:
			f := pick()
			il.MoveToFront(f)
			cl.MoveToFront(elems[f])
		case op == 2:
			f := pick()
			il.Remove(f)
			il.PushBack(f)
			cl.MoveToBack(elems[f])
		case op == 3:
			i := rng.Intn(len(members))
			f := members[i]
			il.Remove(f)
			cl.Remove(elems[f])
			delete(elems, f)
			members = append(members[:i], members[i+1:]...)
		case op == 4:
			f := frame(next)
			next++
			mark := pick()
			il.InsertBefore(f, mark)
			elems[f] = cl.InsertBefore(int(f.Tag), elems[mark])
			members = append(members, f)
		default:
			want := contents()
			if got := tags(&il, false); !slices.Equal(got, want) {
				t.Fatalf("step %d: forward %v != %v", step, got, want)
			}
			slices.Reverse(want)
			if got := tags(&il, true); !slices.Equal(got, want) {
				t.Fatalf("step %d: backward %v != %v", step, got, want)
			}
		}
		if il.Len() != cl.Len() {
			t.Fatalf("step %d: len %d != %d", step, il.Len(), cl.Len())
		}
	}
	if got, want := tags(&il, false), contents(); !slices.Equal(got, want) {
		t.Fatalf("final: %v != %v", got, want)
	}
}

// refHeap is a container/heap reference with the Heap's (Crit, Stamp)
// order.
type refHeap []*Frame

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return heapLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*Frame)) }
func (h *refHeap) Pop() any          { f := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; return f }

// TestHeapMatchesContainerHeap drives a Heap and container/heap through
// the same random pushes, key changes and removals. Criteria repeat, so
// the Stamp tie-break is exercised; every frame's Slot must point back at
// it after every step.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ih Heap
	var rh refHeap
	var members []*Frame
	stamp := uint64(0)
	rekey := func(f *Frame) {
		stamp++
		f.Crit, f.Stamp = float64(rng.Intn(64)), stamp
	}

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(members) == 0:
			f := frame(step)
			rekey(f)
			ih.Push(f)
			heap.Push(&rh, f)
			members = append(members, f)
		case op == 1:
			// Change the key of a random frame and Fix it via its Slot.
			f := members[rng.Intn(len(members))]
			rekey(f)
			ih.Fix(f.Slot)
			heap.Fix(&rh, slices.Index(rh, f))
		case op == 2:
			i := rng.Intn(len(members))
			f := members[i]
			if got := ih.Remove(f.Slot); got != f {
				t.Fatalf("step %d: Remove returned frame %d, want %d", step, got.Tag, f.Tag)
			}
			if f.Slot != -1 {
				t.Fatalf("step %d: removed frame's Slot = %d", step, f.Slot)
			}
			heap.Remove(&rh, slices.Index(rh, f))
			members = append(members[:i], members[i+1:]...)
		default:
			if ih.Len() > 0 && ih.Min() != rh[0] {
				t.Fatalf("step %d: min is frame %d, want %d", step, ih.Min().Tag, rh[0].Tag)
			}
		}
		if ih.Len() != len(rh) {
			t.Fatalf("step %d: len %d != %d", step, ih.Len(), len(rh))
		}
		for i, f := range ih.frames {
			if f.Slot != int32(i) {
				t.Fatalf("step %d: frame at %d has Slot %d", step, i, f.Slot)
			}
		}
	}

	// Drain both: (Crit, Stamp) keys are unique, so the pop order must be
	// the same frames in the same order.
	for ih.Len() > 0 {
		if a, b := ih.Remove(0), heap.Pop(&rh).(*Frame); a != b {
			t.Fatalf("drain: frame %d != %d", a.Tag, b.Tag)
		}
	}
}

func TestHeapClearKeepsCapacityAndResetsSlots(t *testing.T) {
	var ih Heap
	fs := []*Frame{frame(3), frame(1), frame(2)}
	for _, f := range fs {
		f.Crit = float64(f.Tag)
		ih.Push(f)
	}
	ih.Clear()
	if ih.Len() != 0 || cap(ih.frames) < len(fs) {
		t.Fatalf("after Clear: len %d cap %d", ih.Len(), cap(ih.frames))
	}
	for _, f := range fs {
		if f.Slot != -1 {
			t.Fatalf("frame %d Slot after Clear = %d", f.Tag, f.Slot)
		}
	}
	ih.Push(fs[0])
	if ih.Min() != fs[0] || fs[0].Slot != 0 {
		t.Fatal("heap unusable after Clear")
	}
}

// TestArenaFramesAreInNoHeap: the arena hands out and scrubs frames with
// Slot −1, the Heap's "absent".
func TestArenaFramesAreInNoHeap(t *testing.T) {
	a := NewArena(2)
	f := a.Alloc()
	if f.Slot != -1 {
		t.Fatalf("allocated frame has Slot %d", f.Slot)
	}
	f.Slot = 0 // as a heap's minimum has it
	a.Free(f)
	if g := a.Alloc(); g != f || g.Slot != -1 {
		t.Fatalf("recycled frame has Slot %d", g.Slot)
	}
}
