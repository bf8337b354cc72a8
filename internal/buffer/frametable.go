package buffer

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/page"
)

// FrameTable is an engine's resident set, page ID → frame: open
// addressing with linear probing over a fixed power-of-two array of more
// than twice the capacity, so it never grows or allocates and stays
// less than half full (at exactly half, the runs that an eviction has to
// shift get long enough to cost more than the map this replaced);
// deletion shifts the rest of the run back, so a probe ends at the first
// empty slot.
//
// A shadow cache (obs/shadow) looks its ghost frames up in one too,
// through the exported methods, under its own serialization.
//
// Every method but page requires the table owner's serialization. page
// does not, once the table is published (a shared pool publishes each
// shard's): a published slot stores its page ID and page pointer
// atomically, and a reader accepts a pointer only if the page behind it
// carries the ID asked for. Racing with a writer it can miss a resident
// page (and the caller falls back to the serialized path) but never
// returns a page under the wrong ID, or a version older than the one
// resident when it looked. An unpublished table — a bare engine's, a
// ghost cache's — has no reader but its owner and stores the ID alone,
// with a plain write: an atomic store is a locked swap.
type FrameTable struct {
	slots     []frameSlot
	shift     uint // 64 - log2(len(slots))
	n         int  // resident pages
	published bool
}

type frameSlot struct {
	// id is page.ID, page.InvalidID in an empty slot. It is a plain
	// uint64, written with atomic.StoreUint64 once the table is
	// published, so that an unpublished table can write it plainly.
	id uint64
	pg atomic.Pointer[page.Page] // published tables only
	f  *Frame                    // serialized, like the frame itself
}

// NewFrameTable returns an empty table for up to capacity frames.
func NewFrameTable(capacity int) FrameTable {
	log := bits.Len(uint(2 * capacity))
	return FrameTable{slots: make([]frameSlot, 1<<log), shift: uint(64 - log)}
}

// home is the slot a probe for id starts at: Fibonacci hashing, which
// spreads dense sequential page IDs evenly and shares nothing with the
// router's shard hash (that one would leave half of a shard's table
// unused).
func (t *FrameTable) home(id page.ID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the index of the slot holding id, or -1. Only the
// serialized writer stores IDs, so its own reads need no atomics.
func (t *FrameTable) find(id page.ID) int {
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		switch page.ID(t.slots[i].id) {
		case page.InvalidID:
			return -1
		case id:
			return i
		}
	}
}

// Len returns the number of frames in the table.
func (t *FrameTable) Len() int { return t.n }

// Get returns the frame holding id, or nil.
func (t *FrameTable) Get(id page.ID) *Frame {
	if i := t.find(id); i >= 0 {
		return t.slots[i].f
	}
	return nil
}

// publish makes the table readable by page from now on.
func (t *FrameTable) publish() {
	for i := range t.slots {
		if f := t.slots[i].f; f != nil {
			t.slots[i].pg.Store(f.Page)
		}
	}
	t.published = true
}

// page returns the resident page id without the engine's serialization,
// or nil when it is not resident or a concurrent writer hid it; the
// table must be published. It takes two references, the caller's and
// its hit record's, before it reads the ID: a page evicted meanwhile may
// be under a store's decode (claimed).
func (t *FrameTable) page(id page.ID) *page.Page {
	mask := len(t.slots) - 1
	i := t.home(id)
	for range t.slots {
		s := &t.slots[i]
		switch page.ID(atomic.LoadUint64(&s.id)) {
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

// Put records f under f.Meta.ID with its current page: a new residence,
// or a resident frame whose page was replaced.
func (t *FrameTable) Put(f *Frame) {
	mask := len(t.slots) - 1
	for i := t.home(f.Meta.ID); ; i = (i + 1) & mask {
		switch page.ID(t.slots[i].id) {
		case page.InvalidID:
			t.n++
			t.set(i, f)
			return
		case f.Meta.ID:
			t.set(i, f)
			return
		}
	}
}

// set points slot i at f; a nil f empties it. A published slot stores
// the page before the ID, so a reader that matched an ID finds that ID's
// page or one that fails its ID check.
func (t *FrameTable) set(i int, f *Frame) {
	s := &t.slots[i]
	s.f = f
	id := uint64(page.InvalidID)
	if f != nil {
		id = uint64(f.Meta.ID)
	}
	if !t.published {
		s.id = id
		return
	}
	if f == nil {
		atomic.StoreUint64(&s.id, id)
		s.pg.Store(nil)
		return
	}
	s.pg.Store(f.Page)
	atomic.StoreUint64(&s.id, id)
}

// Delete removes id, if present, and closes the gap: each later entry
// of the run moves into the hole unless its home lies cyclically after
// it.
func (t *FrameTable) Delete(id page.ID) {
	i := t.find(id)
	if i < 0 {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].f != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].f.Meta.ID))&mask >= (j-i)&mask {
			t.set(i, t.slots[j].f)
			i = j
		}
	}
	t.set(i, nil)
}

// clear empties the table.
func (t *FrameTable) clear() {
	for i := range t.slots {
		t.set(i, nil)
	}
	t.n = 0
}

// ResidentIDs returns the IDs of the frames in the table, in slot order.
func (t *FrameTable) ResidentIDs() []page.ID {
	ids := make([]page.ID, 0, t.n)
	for i := range t.slots {
		if f := t.slots[i].f; f != nil {
			ids = append(ids, f.Meta.ID)
		}
	}
	return ids
}
