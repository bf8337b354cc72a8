package intrusive_test

import (
	"container/heap"
	"container/list"
	"math/rand"
	"testing"

	"repro/internal/core/intrusive"
)

// node is a test element embedding its link words plus a heap index slot.
type node struct {
	val   int
	hooks intrusive.Hooks[*node]
	slot  int32
}

func nodeHooks(n *node) *intrusive.Hooks[*node] { return &n.hooks }

func ids(l *intrusive.List[*node]) []int {
	var out []int
	for e := l.Front(); e != nil; e = l.Next(e) {
		out = append(out, e.val)
	}
	return out
}

func idsBack(l *intrusive.List[*node]) []int {
	var out []int
	for e := l.Back(); e != nil; e = l.Prev(e) {
		out = append(out, e.val)
	}
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestListBasicOps(t *testing.T) {
	l := intrusive.NewList(nodeHooks)
	ns := []*node{{val: 1}, {val: 2}, {val: 3}, {val: 4}}

	l.PushFront(ns[0]) // [1]
	l.PushBack(ns[1])  // [1 2]
	l.PushFront(ns[2]) // [3 1 2]
	if got := ids(&l); !eq(got, []int{3, 1, 2}) {
		t.Fatalf("after pushes: %v", got)
	}
	if got := idsBack(&l); !eq(got, []int{2, 1, 3}) {
		t.Fatalf("backward walk: %v", got)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}

	l.InsertBefore(ns[3], ns[1]) // [3 1 4 2]
	if got := ids(&l); !eq(got, []int{3, 1, 4, 2}) {
		t.Fatalf("after InsertBefore: %v", got)
	}

	l.MoveToFront(ns[1]) // [2 3 1 4]
	if got := ids(&l); !eq(got, []int{2, 3, 1, 4}) {
		t.Fatalf("after MoveToFront: %v", got)
	}

	l.Remove(ns[3]) // [2 3 1]
	if l.Contains(ns[3]) {
		t.Fatal("removed element still Contains")
	}
	if got := ids(&l); !eq(got, []int{2, 3, 1}) {
		t.Fatalf("after remove: %v", got)
	}

	l.Clear()
	if l.Len() != 0 || l.Front() != nil || l.Back() != nil {
		t.Fatal("Clear left residue")
	}
	for _, n := range ns {
		if l.Contains(n) {
			t.Fatalf("node %d still marked member after Clear", n.val)
		}
	}
	// Cleared elements are immediately reusable.
	l.PushBack(ns[0])
	if got := ids(&l); !eq(got, []int{1}) {
		t.Fatalf("reuse after Clear: %v", got)
	}
}

func TestListEdgeCases(t *testing.T) {
	l := intrusive.NewList(nodeHooks)
	a, b := &node{val: 1}, &node{val: 2}

	// Single-element front/back identity and removal.
	l.PushBack(a)
	if l.Front() != a || l.Back() != a {
		t.Fatal("single element not both front and back")
	}
	l.MoveToFront(a)
	l.Remove(a)
	if l.Len() != 0 {
		t.Fatal("remove of only element")
	}

	// InsertBefore the head degrades to PushFront.
	l.PushBack(a)
	l.InsertBefore(b, a)
	if got := ids(&l); !eq(got, []int{2, 1}) {
		t.Fatalf("InsertBefore head: %v", got)
	}
}

func TestListPanicsOnMisuse(t *testing.T) {
	l := intrusive.NewList(nodeHooks)
	a := &node{val: 1}
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
	b := &node{val: 2}
	mustPanic("Remove of non-member", func() { l.Remove(b) })
}

// TestListMatchesContainerList drives the intrusive list and
// container/list through the same random operation sequence and compares
// contents after every step.
func TestListMatchesContainerList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	il := intrusive.NewList(nodeHooks)
	cl := list.New()
	elems := map[*node]*list.Element{}
	var members []*node
	next := 0

	pick := func() *node { return members[rng.Intn(len(members))] }
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(6); {
		case op == 0 || len(members) == 0:
			n := &node{val: next}
			next++
			if rng.Intn(2) == 0 {
				il.PushFront(n)
				elems[n] = cl.PushFront(n.val)
			} else {
				il.PushBack(n)
				elems[n] = cl.PushBack(n.val)
			}
			members = append(members, n)
		case op == 1:
			n := pick()
			il.MoveToFront(n)
			cl.MoveToFront(elems[n])
		case op == 2:
			n := pick()
			il.Remove(n)
			il.PushBack(n)
			cl.MoveToBack(elems[n])
		case op == 3:
			i := rng.Intn(len(members))
			n := members[i]
			il.Remove(n)
			cl.Remove(elems[n])
			delete(elems, n)
			members = append(members[:i], members[i+1:]...)
		case op == 4:
			n := &node{val: next}
			next++
			mark := pick()
			il.InsertBefore(n, mark)
			elems[n] = cl.InsertBefore(n.val, elems[mark])
			members = append(members, n)
		default:
			// Walk both directions and compare.
			var want []int
			for e := cl.Front(); e != nil; e = e.Next() {
				want = append(want, e.Value.(int))
			}
			if got := ids(&il); !eq(got, want) {
				t.Fatalf("step %d: forward %v != %v", step, got, want)
			}
		}
		if il.Len() != cl.Len() {
			t.Fatalf("step %d: len %d != %d", step, il.Len(), cl.Len())
		}
	}
	var want []int
	for e := cl.Front(); e != nil; e = e.Next() {
		want = append(want, e.Value.(int))
	}
	if got := ids(&il); !eq(got, want) {
		t.Fatalf("final: %v != %v", got, want)
	}
}

// refHeap is a container/heap reference for the randomized heap test.
type refHeap []*node

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].val < h[j].val }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *refHeap) Pop() any          { n := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; return n }

func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ih := intrusive.NewHeap(
		func(a, b *node) bool { return a.val < b.val },
		func(n *node, i int32) { n.slot = i },
	)
	var rh refHeap
	var members []*node

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(members) == 0:
			n := &node{val: rng.Intn(1 << 20), slot: -1}
			ih.Push(n)
			heap.Push(&rh, n)
			members = append(members, n)
		case op == 1:
			// Decrease/increase key of a random element, Fix via its
			// cached slot.
			n := members[rng.Intn(len(members))]
			n.val = rng.Intn(1 << 20)
			ih.Fix(n.slot)
			for i, m := range rh {
				if m == n {
					heap.Fix(&rh, i)
					break
				}
			}
		case op == 2:
			i := rng.Intn(len(members))
			n := members[i]
			got := ih.Remove(n.slot)
			if got != n {
				t.Fatalf("step %d: Remove returned %v want %v", step, got.val, n.val)
			}
			if n.slot != -1 {
				t.Fatalf("step %d: removed element slot = %d", step, n.slot)
			}
			for j, m := range rh {
				if m == n {
					heap.Remove(&rh, j)
					break
				}
			}
			members = append(members[:i], members[i+1:]...)
		default:
			if ih.Len() == 0 {
				continue
			}
			if ih.Min().val != rh[0].val {
				t.Fatalf("step %d: min %d != %d", step, ih.Min().val, rh[0].val)
			}
		}
		if ih.Len() != len(rh) {
			t.Fatalf("step %d: len %d != %d", step, ih.Len(), len(rh))
		}
		// Every member's cached slot must point back at itself.
		for i := int32(0); int(i) < ih.Len(); i++ {
			if ih.At(i).slot != i {
				t.Fatalf("step %d: element at %d caches slot %d", step, i, ih.At(i).slot)
			}
		}
	}

	// Drain both; the ascending pop order must match exactly (values may
	// repeat, so compare values, not identities).
	for ih.Len() > 0 {
		a := ih.Remove(0)
		b := heap.Pop(&rh).(*node)
		if a.val != b.val {
			t.Fatalf("drain: %d != %d", a.val, b.val)
		}
	}
}

func TestHeapClearKeepsCapacityAndResetsSlots(t *testing.T) {
	ih := intrusive.NewHeap(
		func(a, b *node) bool { return a.val < b.val },
		func(n *node, i int32) { n.slot = i },
	)
	ns := []*node{{val: 3}, {val: 1}, {val: 2}}
	for _, n := range ns {
		ih.Push(n)
	}
	ih.Clear()
	if ih.Len() != 0 {
		t.Fatalf("len after Clear = %d", ih.Len())
	}
	for _, n := range ns {
		if n.slot != -1 {
			t.Fatalf("node %d slot after Clear = %d", n.val, n.slot)
		}
	}
	ih.Push(ns[0])
	if ih.Min() != ns[0] || ns[0].slot != 0 {
		t.Fatal("heap unusable after Clear")
	}
}
