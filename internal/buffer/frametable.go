package buffer

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/page"
)

// frameTable is an engine's resident set, page ID → frame: open
// addressing with linear probing over a fixed power-of-two array of more
// than twice the capacity, so it never grows or allocates and stays
// less than half full (at exactly half, the runs that an eviction has to
// shift get long enough to cost more than the map this replaced);
// deletion shifts the rest of the run back, so a probe ends at the first
// empty slot.
//
// Every method but page requires the engine's serialization. page does
// not: a slot publishes its page ID and page pointer atomically, and a
// reader accepts a pointer only if the page behind it carries the ID
// asked for. Racing with a writer it can miss a resident page (and the
// caller falls back to the serialized path) but never returns a page
// under the wrong ID, or a version older than the one resident when it
// looked.
type frameTable struct {
	slots []frameSlot
	shift uint // 64 - log2(len(slots))
	n     int  // resident pages
}

type frameSlot struct {
	id atomic.Uint64 // page.ID; page.InvalidID marks an empty slot
	pg atomic.Pointer[page.Page]
	f  *Frame // serialized, like the frame itself
}

func newFrameTable(capacity int) frameTable {
	log := bits.Len(uint(2 * capacity))
	return frameTable{slots: make([]frameSlot, 1<<log), shift: uint(64 - log)}
}

// home is the slot a probe for id starts at: Fibonacci hashing, which
// spreads dense sequential page IDs evenly and shares nothing with the
// router's shard hash (that one would leave half of a shard's table
// unused).
func (t *frameTable) home(id page.ID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the index of the slot holding id, or -1.
func (t *frameTable) find(id page.ID) int {
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		switch page.ID(t.slots[i].id.Load()) {
		case page.InvalidID:
			return -1
		case id:
			return i
		}
	}
}

// get returns the frame holding id, or nil.
func (t *frameTable) get(id page.ID) *Frame {
	if i := t.find(id); i >= 0 {
		return t.slots[i].f
	}
	return nil
}

// page returns the resident page id without the engine's serialization,
// or nil when it is not resident or a concurrent writer hid it. It takes
// two references, the caller's and its hit record's, before it reads the
// ID: a page evicted meanwhile may be under a store's decode (claimed).
func (t *frameTable) page(id page.ID) *page.Page {
	mask := len(t.slots) - 1
	i := t.home(id)
	for range t.slots {
		s := &t.slots[i]
		switch page.ID(s.id.Load()) {
		case page.InvalidID:
			return nil
		case id:
			p := s.pg.Load()
			if p == nil || !p.TryAcquire(2) {
				return nil
			}
			if p.ID != id {
				p.Release()
				p.Release()
				return nil
			}
			return p
		}
		i = (i + 1) & mask
	}
	return nil
}

// put records f under f.Meta.ID with its current page: a new residence,
// or a resident frame whose page was replaced.
func (t *frameTable) put(f *Frame) {
	mask := len(t.slots) - 1
	for i := t.home(f.Meta.ID); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; page.ID(s.id.Load()) {
		case page.InvalidID:
			t.n++
			s.set(f)
			return
		case f.Meta.ID:
			s.set(f)
			return
		}
	}
}

// set publishes the page before the ID, so a reader that matched an ID
// finds that ID's page or one that fails its ID check. A nil f empties
// the slot.
func (s *frameSlot) set(f *Frame) {
	s.f = f
	if f == nil {
		s.id.Store(uint64(page.InvalidID))
		s.pg.Store(nil)
		return
	}
	s.pg.Store(f.Page)
	s.id.Store(uint64(f.Meta.ID))
}

// del removes id, if present, and closes the gap: each later entry of
// the run moves into the hole unless its home lies cyclically after it.
func (t *frameTable) del(id page.ID) {
	i := t.find(id)
	if i < 0 {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].f != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].f.Meta.ID))&mask >= (j-i)&mask {
			t.slots[i].set(t.slots[j].f)
			i = j
		}
	}
	t.slots[i].set(nil)
}

// clear empties the table.
func (t *frameTable) clear() {
	for i := range t.slots {
		t.slots[i].set(nil)
	}
	t.n = 0
}
