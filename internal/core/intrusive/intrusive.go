// Package intrusive provides the allocation-free container primitives the
// replacement policies are built on: a doubly-linked list whose link words
// live inside the elements (so membership costs no container node) and an
// indexed min-heap that reports element positions through a callback (so
// decrease-key and removal need no boxing and no position map).
//
// "Intrusive" means the element type carries its own bookkeeping: a frame
// embeds one Hooks value and the policy that owns the frame threads it onto
// its list through an accessor function. Compared to container/list this
// removes the per-element heap allocation and one pointer indirection per
// traversal step; compared to container/heap it removes the interface{}
// boxing of Push/Pop. Both structures are generic and dependency-free so
// the buffer layer can embed them without an import cycle.
//
// Ownership rule: an element may be on at most one list (or in one heap) at
// a time, because it has exactly one set of link words. The policies uphold
// this by construction — a frame belongs to exactly one policy structure
// per residence.
package intrusive

// Hooks is the pair of intrusive link words an element embeds to become
// linkable. The zero value means "not on any list".
type Hooks[E comparable] struct {
	prev, next E
	member     bool
}

// List is an intrusive doubly-linked list of elements of type E (typically
// a pointer type). hooks resolves an element to its embedded link words;
// it must be pure and total. The zero List is not ready for use — build
// one with NewList.
type List[E comparable] struct {
	hooks      func(E) *Hooks[E]
	head, tail E
	n          int
	zero       E // the "no element" sentinel (nil for pointer types)
}

// NewList returns an empty list using hooks to reach each element's link
// words.
func NewList[E comparable](hooks func(E) *Hooks[E]) List[E] {
	return List[E]{hooks: hooks}
}

// Len returns the number of elements on the list.
func (l *List[E]) Len() int { return l.n }

// Front returns the first element, or the zero E when the list is empty.
func (l *List[E]) Front() E { return l.head }

// Back returns the last element, or the zero E when the list is empty.
func (l *List[E]) Back() E { return l.tail }

// Next returns the element after e, or the zero E at the back.
func (l *List[E]) Next(e E) E { return l.hooks(e).next }

// Prev returns the element before e, or the zero E at the front.
func (l *List[E]) Prev(e E) E { return l.hooks(e).prev }

// Contains reports whether e is currently linked on a list. With the
// one-list-per-element ownership rule, that list is this one.
func (l *List[E]) Contains(e E) bool { return l.hooks(e).member }

// PushFront links e at the front. e must not be on a list.
func (l *List[E]) PushFront(e E) {
	h := l.hooks(e)
	if h.member {
		panic("intrusive: PushFront of an element already on a list")
	}
	h.member = true
	h.prev = l.zero
	h.next = l.head
	if l.head != l.zero {
		l.hooks(l.head).prev = e
	} else {
		l.tail = e
	}
	l.head = e
	l.n++
}

// PushBack links e at the back. e must not be on a list.
func (l *List[E]) PushBack(e E) {
	h := l.hooks(e)
	if h.member {
		panic("intrusive: PushBack of an element already on a list")
	}
	h.member = true
	h.next = l.zero
	h.prev = l.tail
	if l.tail != l.zero {
		l.hooks(l.tail).next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

// InsertBefore links e immediately before mark, which must be on the list.
// e must not be on a list.
func (l *List[E]) InsertBefore(e, mark E) {
	if mark == l.head {
		l.PushFront(e)
		return
	}
	h := l.hooks(e)
	if h.member {
		panic("intrusive: InsertBefore of an element already on a list")
	}
	mh := l.hooks(mark)
	h.member = true
	h.prev = mh.prev
	h.next = mark
	l.hooks(mh.prev).next = e
	mh.prev = e
	l.n++
}

// Remove unlinks e, which must be on the list.
func (l *List[E]) Remove(e E) {
	h := l.hooks(e)
	if !h.member {
		panic("intrusive: Remove of an element not on a list")
	}
	if h.prev != l.zero {
		l.hooks(h.prev).next = h.next
	} else {
		l.head = h.next
	}
	if h.next != l.zero {
		l.hooks(h.next).prev = h.prev
	} else {
		l.tail = h.prev
	}
	h.prev, h.next = l.zero, l.zero
	h.member = false
	l.n--
}

// MoveToFront relinks e (already on the list) to the front.
func (l *List[E]) MoveToFront(e E) {
	if e == l.head {
		return
	}
	l.Remove(e)
	l.PushFront(e)
}

// Clear unlinks every element, resetting their link words, and empties the
// list. O(n).
func (l *List[E]) Clear() {
	for e := l.head; e != l.zero; {
		h := l.hooks(e)
		next := h.next
		h.prev, h.next = l.zero, l.zero
		h.member = false
		e = next
	}
	l.head, l.tail = l.zero, l.zero
	l.n = 0
}

// Heap is an indexed binary min-heap over elements of type E. less orders
// the elements; move reports every position change (including the initial
// placement on Push and -1 on removal), so an element can cache its own
// index for O(log n) Fix and Remove without a position map. The element
// slice is retained across Clear, so a heap that has reached its working
// size never allocates again. The zero Heap is not ready for use — build
// one with NewHeap.
type Heap[E any] struct {
	less  func(a, b E) bool
	move  func(e E, i int32)
	elems []E
}

// NewHeap returns an empty heap with the given order and position callback.
func NewHeap[E any](less func(a, b E) bool, move func(e E, i int32)) Heap[E] {
	return Heap[E]{less: less, move: move}
}

// Len returns the number of elements in the heap.
func (h *Heap[E]) Len() int { return len(h.elems) }

// Min returns the minimum element. The heap must be non-empty.
func (h *Heap[E]) Min() E { return h.elems[0] }

// At returns the element at heap index i (for iteration; order beyond
// index 0 is unspecified).
func (h *Heap[E]) At(i int32) E { return h.elems[i] }

// Push inserts e.
func (h *Heap[E]) Push(e E) {
	h.elems = append(h.elems, e)
	h.up(len(h.elems) - 1)
}

// Fix restores the heap order after the element at index i changed its
// key.
func (h *Heap[E]) Fix(i int32) {
	if !h.down(int(i)) {
		h.up(int(i))
	}
}

// Remove deletes and returns the element at index i; its final move
// callback reports index -1.
func (h *Heap[E]) Remove(i int32) E {
	n := len(h.elems) - 1
	e := h.elems[i]
	last := h.elems[n]
	var zero E
	h.elems[n] = zero
	h.elems = h.elems[:n]
	if int(i) != n {
		h.set(int(i), last)
		if !h.down(int(i)) {
			h.up(int(i))
		}
	}
	h.move(e, -1)
	return e
}

// Clear empties the heap, reporting index -1 for every element. The
// backing slice is kept for reuse.
func (h *Heap[E]) Clear() {
	var zero E
	for i, e := range h.elems {
		h.move(e, -1)
		h.elems[i] = zero
	}
	h.elems = h.elems[:0]
}

// set places e at index i and reports the position.
func (h *Heap[E]) set(i int, e E) {
	h.elems[i] = e
	h.move(e, int32(i))
}

// up sifts the element at index j toward the root.
func (h *Heap[E]) up(j int) {
	e := h.elems[j]
	for j > 0 {
		parent := (j - 1) / 2
		if !h.less(e, h.elems[parent]) {
			break
		}
		h.set(j, h.elems[parent])
		j = parent
	}
	h.set(j, e)
}

// down sifts the element at index j toward the leaves, reporting whether
// it moved.
func (h *Heap[E]) down(j int) bool {
	e := h.elems[j]
	n := len(h.elems)
	start := j
	for {
		left := 2*j + 1
		if left >= n {
			break
		}
		m := left
		if right := left + 1; right < n && h.less(h.elems[right], h.elems[left]) {
			m = right
		}
		if !h.less(h.elems[m], e) {
			break
		}
		h.set(j, h.elems[m])
		j = m
	}
	h.set(j, e)
	return j > start
}
