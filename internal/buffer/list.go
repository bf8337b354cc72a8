package buffer

// List and Heap are the containers the replacement policies thread their
// frames on. Their link words and heap slot live inside Frame, so no step
// allocates, and both are concrete over *Frame, so no step calls through
// a function value. A frame is on at most one List, and in at most one
// Heap, at a time: one policy owns it per residence (DESIGN.md §5g).

// List is a doubly-linked list of frames. The zero List is empty and
// ready for use.
type List struct {
	head, tail *Frame
	n          int
}

// Len returns the number of frames on the list.
func (l *List) Len() int { return l.n }

// Front returns the first frame, or nil when the list is empty.
func (l *List) Front() *Frame { return l.head }

// Back returns the last frame, or nil when the list is empty.
func (l *List) Back() *Frame { return l.tail }

// Next returns the frame after f, or nil at the back.
func (l *List) Next(f *Frame) *Frame { return f.next }

// Prev returns the frame before f, or nil at the front.
func (l *List) Prev(f *Frame) *Frame { return f.prev }

// PushFront links f at the front. f must not be on a list.
func (l *List) PushFront(f *Frame) { l.insert(f, nil, l.head) }

// PushBack links f at the back. f must not be on a list.
func (l *List) PushBack(f *Frame) { l.insert(f, l.tail, nil) }

// InsertBefore links f immediately before mark, which must be on the
// list. f must not be on a list.
func (l *List) InsertBefore(f, mark *Frame) { l.insert(f, mark.prev, mark) }

// insert links f between prev and next, neighbours on the list or nil
// at its ends.
func (l *List) insert(f, prev, next *Frame) {
	if f.listed {
		panic("buffer: insert of a frame already on a list")
	}
	f.listed, f.prev, f.next = true, prev, next
	if prev != nil {
		prev.next = f
	} else {
		l.head = f
	}
	if next != nil {
		next.prev = f
	} else {
		l.tail = f
	}
	l.n++
}

// Remove unlinks f, which must be on the list.
func (l *List) Remove(f *Frame) {
	if !f.listed {
		panic("buffer: Remove of a frame not on a list")
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next, f.listed = nil, nil, false
	l.n--
}

// MoveToFront relinks f, which must be on the list, to the front.
func (l *List) MoveToFront(f *Frame) {
	if f == l.head {
		return
	}
	l.Remove(f)
	l.PushFront(f)
}

// Clear unlinks every frame, resetting its link words, and empties the
// list. O(n).
func (l *List) Clear() {
	for f := l.head; f != nil; {
		next := f.next
		f.prev, f.next, f.listed = nil, nil, false
		f = next
	}
	*l = List{}
}

// Heap is an indexed binary min-heap of frames ordered by (Crit, Stamp):
// the smallest criterion first, ties to the smaller stamp. Every frame in
// it keeps its index in Slot, so Fix and Remove take O(log n) without a
// position map; a frame not in a heap has Slot −1. The backing slice is
// kept across Clear, so a heap that has reached its working size never
// allocates again. The zero Heap is empty and ready for use.
type Heap struct {
	frames []*Frame
}

// heapLess is the heap order: (Crit, Stamp) ascending.
func heapLess(a, b *Frame) bool {
	if a.Crit != b.Crit {
		return a.Crit < b.Crit
	}
	return a.Stamp < b.Stamp
}

// Len returns the number of frames in the heap.
func (h *Heap) Len() int { return len(h.frames) }

// Min returns the minimum frame. The heap must be non-empty.
func (h *Heap) Min() *Frame { return h.frames[0] }

// Push inserts f.
func (h *Heap) Push(f *Frame) {
	h.frames = append(h.frames, f)
	h.up(len(h.frames)-1, f)
}

// Fix restores the order after the frame at index i changed its key.
func (h *Heap) Fix(i int32) {
	if !h.down(int(i)) {
		h.up(int(i), h.frames[i])
	}
}

// Remove deletes and returns the frame at index i, setting its Slot to −1.
func (h *Heap) Remove(i int32) *Frame {
	n := len(h.frames) - 1
	f, last := h.frames[i], h.frames[n]
	h.frames[n] = nil
	h.frames = h.frames[:n]
	if int(i) != n {
		h.frames[i], last.Slot = last, i
		h.Fix(i)
	}
	f.Slot = -1
	return f
}

// Replace puts f, which must not be in a heap, in place of the frame at
// index i, which leaves with Slot −1, and restores the order: one sift
// where a Remove and a Push take two.
func (h *Heap) Replace(i int32, f *Frame) {
	h.frames[i].Slot = -1
	h.frames[i], f.Slot = f, i
	h.Fix(i)
}

// Clear empties the heap, setting every frame's Slot to −1. The backing
// slice is kept for reuse.
func (h *Heap) Clear() {
	for i, f := range h.frames {
		f.Slot = -1
		h.frames[i] = nil
	}
	h.frames = h.frames[:0]
}

// up sifts f, which is at index j, toward the root.
func (h *Heap) up(j int, f *Frame) {
	for j > 0 {
		parent := (j - 1) / 2
		p := h.frames[parent]
		if !heapLess(f, p) {
			break
		}
		h.frames[j], p.Slot = p, int32(j)
		j = parent
	}
	h.frames[j], f.Slot = f, int32(j)
}

// down sifts the frame at index j toward the leaves and reports whether
// it moved.
func (h *Heap) down(j int) bool {
	f := h.frames[j]
	n := len(h.frames)
	start := j
	for {
		m := 2*j + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && heapLess(h.frames[r], h.frames[m]) {
			m = r
		}
		c := h.frames[m]
		if !heapLess(c, f) {
			break
		}
		h.frames[j], c.Slot = c, int32(j)
		j = m
	}
	h.frames[j], f.Slot = f, int32(j)
	return j > start
}
