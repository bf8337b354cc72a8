package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// windowChecked wraps an ASB so that every demotion it makes is checked
// against the scan it replaced. Each callback that can demote runs with
// the main part's share lifted by one frame, so it returns at the state
// its first demotion starts from. There the heap's pick must be
// slruVictim(&main, cand); then rebalance demotes one frame at a time,
// each checked the same way. After every callback the whole window is
// checked too (see check).
type windowChecked struct {
	*ASB
	t         testing.TB
	demotions int
}

func (c *windowChecked) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	c.demoting(func() { c.ASB.OnAdmit(f, now, ctx) })
}

func (c *windowChecked) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	c.demoting(func() { c.ASB.OnHit(f, now, ctx) })
}

func (c *windowChecked) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	c.demoting(func() { c.ASB.OnUpdate(f, now, ctx) })
}

func (c *windowChecked) OnEvict(f *buffer.Frame) {
	c.ASB.OnEvict(f)
	c.check()
}

func (c *windowChecked) demoting(op func()) {
	share := c.mainCap
	c.mainCap++
	op()
	c.mainCap = share
	if c.cand > share {
		c.resize(share) // adapt clamped to the lifted share
	}
	for c.main.Len() > share {
		c.check()
		want, _, _ := slruVictim(&c.main, c.cand)
		if got := c.demotee(); got != want {
			c.t.Fatalf("demotion %d: heap picks %v, slruVictim(&main, %d) picks %v", c.demotions, frameID(got), c.cand, frameID(want))
		}
		if want == nil {
			break // everything pinned
		}
		c.mainCap = c.main.Len() - 1
		c.rebalance()
		c.mainCap = share
		c.demotions++
	}
	c.check()
}

func frameID(f *buffer.Frame) any {
	if f == nil {
		return nil
	}
	return f.Meta.ID
}

// check asserts the window invariant: while it is kept, the heap holds
// exactly the min(cand, |main|) least recently used frames of main, edge
// is the most recent of them, Stamps grow toward main's front, and the
// heap's minimum is the window's smallest (Crit, Stamp). No other frame
// claims a Slot.
func (c *windowChecked) check() {
	c.t.Helper()
	for f := c.over.Front(); f != nil; f = c.over.Next(f) {
		if f.Slot != -1 {
			c.t.Fatalf("overflow frame %d has Slot %d", f.Meta.ID, f.Slot)
		}
	}
	kept := c.edge != nil
	var low, last *buffer.Frame
	n := 0
	for f := c.main.Back(); f != nil; f = c.main.Prev(f) {
		in := kept && n < c.cand
		if (f.Slot >= 0) != in {
			c.t.Fatalf("main frame %d at LRU rank %d (cand %d, kept %v) has Slot %d", f.Meta.ID, n, c.cand, kept, f.Slot)
		}
		if in && (n == c.cand-1 || c.main.Prev(f) == nil) && f != c.edge {
			c.t.Fatalf("edge is %v, want frame %d", frameID(c.edge), f.Meta.ID)
		}
		if in && (low == nil || f.Crit < low.Crit) {
			low = f
		}
		if last != nil && f.Stamp <= last.Stamp {
			c.t.Fatalf("Stamp %d of frame %d not above %d behind it", f.Stamp, f.Meta.ID, last.Stamp)
		}
		last = f
		n++
	}
	if want := 0; kept {
		want = min(c.cand, c.main.Len())
		if c.win.Len() != want || c.win.Min() != low {
			c.t.Fatalf("window holds %d frames with minimum %v, want %d with %v", c.win.Len(), frameID(c.win.Min()), want, frameID(low))
		}
	} else if c.win.Len() != 0 {
		c.t.Fatalf("window not kept but holds %d frames", c.win.Len())
	}
}

// runWindowCheck decodes ops into engine calls on a checked ASB: the
// first byte picks the capacity and the step, every later byte one
// operation (its top three bits) on one page (the rest). Areas repeat, so
// criterion ties are common; half of the gets fall on a hot eighth of the
// pages, so overflow hits move cand both ways.
func runWindowCheck(t testing.TB, ops []byte) int {
	if len(ops) == 0 {
		return 0
	}
	const numPages = 32
	capacity := 4 + int(ops[0]%29)
	opts := DefaultASBOptions()
	opts.StepFrac = []float64{0.01, 0.1, 0.3, 1}[ops[0]>>6]
	store := storage.NewMemStore()
	for i := 0; i < numPages; i++ {
		id := store.Allocate()
		p := page.New(id, page.TypeData, 0, 1)
		side := math.Sqrt(float64(1 + (i*7)%5))
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, side, side), ObjID: uint64(id)})
		p.Recompute()
		if err := store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	pol := &windowChecked{ASB: NewASB(capacity, opts), t: t}
	e, err := buffer.NewEngine(store, pol, capacity)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[page.ID]int{}
	for i, b := range ops[1:] {
		id := page.ID(1 + int(b&31)%numPages)
		if b&1 == 0 {
			id = page.ID(1 + int(b&31)%(numPages/8))
		}
		ctx := buffer.AccessContext{QueryID: uint64(i / 3)}
		switch b >> 5 {
		case 0, 1, 2, 3:
			_, err = e.Get(id, ctx)
		case 4:
			var p *page.Page
			if p, err = store.Read(id); err == nil {
				err = e.Put(p.Clone(), ctx)
			}
		case 5:
			// Pinning the overflow's head makes the engine evict from
			// main, which shrinks main below the window.
			if f := pol.over.Front(); f != nil && b&2 != 0 {
				id = f.Meta.ID
			}
			if len(fixed) < capacity-1 {
				if _, err = e.Fix(id, ctx); err == nil {
					fixed[id]++
				}
			}
		case 6:
			for fid := range fixed {
				if err = e.Unfix(fid); err == nil {
					if fixed[fid]--; fixed[fid] == 0 {
						delete(fixed, fid)
					}
				}
				break
			}
		default:
			if b&31 == 0 {
				err = e.Clear()
				clear(fixed)
			} else {
				_, err = e.Get(id, ctx)
			}
		}
		if err != nil {
			t.Fatalf("op %d (%#x): %v", i, b, err)
		}
		pol.check()
	}
	return pol.demotions
}

// windowOps returns n random operation bytes for runWindowCheck.
func windowOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, n)
	rng.Read(ops)
	return ops
}

// TestASBHeapMatchesScan: ASB's candidate heap demotes exactly the frame
// the O(cand) scan would, at every demotion of random admit, hit,
// overflow-hit, Put, Fix/Unfix and Clear sequences.
func TestASBHeapMatchesScan(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 40; seed++ {
		total += runWindowCheck(t, windowOps(seed, 3000))
	}
	if total < 10000 {
		t.Fatalf("only %d demotions checked", total)
	}
}

// TestASBWindowSpansMain: with cand = the whole main part, the window
// spans all of main after every demotion, and a frame leaving main's
// front must move the edge behind it. The engine-driven sequences above
// reach that state only through OnUpdate, which re-pushes the frame at
// once: an eviction from main needs an empty overflow.
func TestASBWindowSpansMain(t *testing.T) {
	c := &windowChecked{ASB: NewASB(10, ASBOptions{InitialCandFrac: 1}), t: t}
	admit := func(id int) {
		side := float64(1 + id%3)
		meta := page.Meta{ID: page.ID(id), MBR: geom.NewRect(0, 0, side, side)}
		c.OnAdmit(&buffer.Frame{Meta: meta, Slot: -1}, uint64(id), buffer.AccessContext{})
	}
	for id := 1; id <= 12; id++ {
		admit(id)
	}
	if c.edge == nil || c.win.Len() != c.main.Len() {
		t.Fatalf("window holds %d of main's %d frames, want all", c.win.Len(), c.main.Len())
	}
	for c.main.Len() > 0 {
		c.OnEvict(c.main.Front())
	}
	for id := 13; id <= 24; id++ {
		admit(id)
	}
	if c.demotions < 6 {
		t.Fatalf("only %d demotions", c.demotions)
	}
}

func FuzzASBDemotion(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(windowOps(seed, 300))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runWindowCheck(t, ops) })
}
