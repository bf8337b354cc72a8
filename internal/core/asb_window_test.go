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

// slruVictim is the §4.1 selection as the O(cand) scan the window
// replaced, kept as the oracle every pick is checked against: over a
// recency list (front = most recently used), the unpinned frame with the
// smallest cached criterion among the cand least recently used; scanning
// from the LRU end keeps ties on the older page. If the candidate set
// holds no unpinned frame the scan continues past it (degrading to LRU)
// rather than failing. nil when every frame is pinned.
func slruVictim(order *buffer.List, cand int) *buffer.Frame {
	var best *buffer.Frame
	seen := 0
	for f := order.Back(); f != nil; f = order.Prev(f) {
		seen++
		if !f.Pinned() && (best == nil || f.Crit < best.Crit) {
			best = f
		}
		if seen >= cand && best != nil {
			break
		}
	}
	return best
}

// updater is the engine's optional OnUpdate hook, which SLRU and ASB
// both implement.
type updater interface {
	OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext)
}

// windowChecked wraps an SLRU, or an ASB, so that every pick its window
// makes is checked against slruVictim: every Victim of an SLRU, and
// every demotion of an ASB and its Victim when the overflow has no
// unpinned frame. Each ASB callback that can demote runs with the main
// part's share lifted by one frame, so it returns at the state its first
// demotion starts from. There the window's pick must be
// slruVictim(&main, cand); then rebalance demotes one frame at a time,
// each checked the same way. After every callback the whole window is
// checked too (see check).
type windowChecked struct {
	buffer.Policy
	w     *SLRU // the window: the policy itself, or ASB's main part
	asb   *ASB  // nil for an SLRU
	t     testing.TB
	picks int
}

func checkWindow(t testing.TB, pol buffer.Policy) *windowChecked {
	c := &windowChecked{Policy: pol, t: t}
	switch p := pol.(type) {
	case *ASB:
		c.asb, c.w = p, &p.main
	case *SLRU:
		c.w = p
	default:
		t.Fatalf("no window in %T", pol)
	}
	return c
}

func (c *windowChecked) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	c.demoting(func() { c.Policy.OnAdmit(f, now, ctx) })
}

func (c *windowChecked) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	c.demoting(func() { c.Policy.OnHit(f, now, ctx) })
}

func (c *windowChecked) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	c.demoting(func() { c.Policy.(updater).OnUpdate(f, now, ctx) })
}

func (c *windowChecked) Victim(ctx buffer.AccessContext) buffer.Choice {
	fromMain := c.asb == nil
	if !fromMain {
		f, _ := firstUnpinned(&c.asb.over, true)
		fromMain = f == nil
	}
	var want *buffer.Frame
	if fromMain {
		want = slruVictim(&c.w.order, c.w.cand)
	}
	ch := c.Policy.Victim(ctx)
	if fromMain {
		if ch.Frame != want {
			c.t.Fatalf("pick %d of %s: window picks %v, slruVictim(%d) picks %v", c.picks, c.Name(), frameID(ch.Frame), c.w.cand, frameID(want))
		}
		c.picks++
	}
	c.check()
	return ch
}

func (c *windowChecked) OnEvict(f *buffer.Frame) {
	c.Policy.OnEvict(f)
	c.check()
}

func (c *windowChecked) demoting(op func()) {
	if c.asb == nil {
		op()
		c.check()
		return
	}
	a, w := c.asb, c.w
	share := a.mainCap
	a.mainCap++
	op()
	a.mainCap = share
	if w.cand > share {
		w.resize(share) // adapt clamped to the lifted share
	}
	for w.order.Len() > share {
		c.check()
		want := slruVictim(&w.order, w.cand)
		if got := w.pick(); got != want {
			c.t.Fatalf("demotion %d: window picks %v, slruVictim(&main, %d) picks %v", c.picks, frameID(got), w.cand, frameID(want))
		}
		if want == nil {
			break // everything pinned
		}
		a.mainCap = w.order.Len() - 1
		a.rebalance()
		a.mainCap = share
		c.picks++
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
// exactly the min(cand, |list|) least recently used frames of the list,
// edge is the most recent of them, Stamps grow toward the list's front,
// and the heap's minimum is the window's smallest (Crit, Stamp). No other
// frame claims a Slot.
func (c *windowChecked) check() {
	c.t.Helper()
	w := c.w
	if c.asb != nil {
		for f := c.asb.over.Front(); f != nil; f = c.asb.over.Next(f) {
			if f.Slot != -1 {
				c.t.Fatalf("overflow frame %d has Slot %d", f.Meta.ID, f.Slot)
			}
		}
	}
	kept := w.edge != nil
	var low, last *buffer.Frame
	n := 0
	for f := w.order.Back(); f != nil; f = w.order.Prev(f) {
		in := kept && n < w.cand
		if (f.Slot >= 0) != in {
			c.t.Fatalf("frame %d at LRU rank %d (cand %d, kept %v) has Slot %d", f.Meta.ID, n, w.cand, kept, f.Slot)
		}
		if in && (n == w.cand-1 || w.order.Prev(f) == nil) && f != w.edge {
			c.t.Fatalf("edge is %v, want frame %d", frameID(w.edge), f.Meta.ID)
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
		want = min(w.cand, w.order.Len())
		if w.win.Len() != want || w.win.Min() != low {
			c.t.Fatalf("window holds %d frames with minimum %v, want %d with %v", w.win.Len(), frameID(w.win.Min()), want, frameID(low))
		}
	} else if w.win.Len() != 0 {
		c.t.Fatalf("window not kept but holds %d frames", w.win.Len())
	}
}

// runWindowCheck decodes ops into engine calls on three checked
// policies in turn: an ASB, an SLRU at a fixed candidate size and the
// spatial policy, whose window spans the buffer. The first byte picks the
// capacity, ASB's step and SLRU's size, every later byte one operation
// (its top three bits) on one page (the rest). Areas repeat, so criterion
// ties are common; half of the gets fall on a hot eighth of the pages, so
// overflow hits move cand both ways. It returns the picks checked, per
// policy in that order.
func runWindowCheck(t testing.TB, ops []byte) (picks [3]int) {
	if len(ops) == 0 {
		return picks
	}
	capacity := 4 + int(ops[0]%29)
	opts := DefaultASBOptions()
	opts.StepFrac = []float64{0.01, 0.1, 0.3, 1}[ops[0]>>6]
	policies := []buffer.Policy{
		NewASB(capacity, opts),
		NewSLRU(page.CritA, 1+int(ops[0]>>3)%capacity),
		NewSpatial(page.CritA),
	}
	for i, p := range policies {
		picks[i] = runWindowOps(t, checkWindow(t, p), capacity, ops[1:])
	}
	return picks
}

// runWindowOps replays ops on one checked policy.
func runWindowOps(t testing.TB, pol *windowChecked, capacity int, ops []byte) int {
	const numPages = 32
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
	e, err := buffer.NewEngine(store, pol, capacity)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[page.ID]int{}
	for i, b := range ops {
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
			// ASB's main part, which shrinks main below the window;
			// pinning the window's minimum makes the pick pop it aside.
			if b&2 != 0 {
				if pol.asb != nil && pol.asb.over.Front() != nil {
					id = pol.asb.over.Front().Meta.ID
				} else if pol.w.win.Len() > 0 {
					id = pol.w.win.Min().Meta.ID
				}
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
			t.Fatalf("%s: op %d (%#x): %v", pol.Name(), i, b, err)
		}
		pol.check()
	}
	return pol.picks
}

// windowOps returns n random operation bytes for runWindowCheck.
func windowOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, n)
	rng.Read(ops)
	return ops
}

// TestASBHeapMatchesScan: the candidate window picks exactly the frame
// the O(cand) scan would — at every demotion and main-part victim of ASB
// and every victim of a fixed-size SLRU and of the spatial policy — on
// random admit, hit, overflow-hit, Put, Fix/Unfix and Clear sequences.
func TestASBHeapMatchesScan(t *testing.T) {
	var total [3]int
	for seed := int64(1); seed <= 40; seed++ {
		picks := runWindowCheck(t, windowOps(seed, 3000))
		for i := range total {
			total[i] += picks[i]
		}
	}
	for i, name := range []string{"ASB", "SLRU", "spatial"} {
		if total[i] < 10000 {
			t.Errorf("%s: only %d picks checked", name, total[i])
		}
	}
	t.Logf("picks checked: ASB %d, SLRU %d, spatial %d", total[0], total[1], total[2])
}

// TestASBWindowSpansMain: with a window as large as its list (ASB with
// cand = the whole main part, the spatial policy) or smaller (SLRU), the
// invariant holds while frames leave the list's front, so that a window
// spanning the list must move its edge behind them. The engine-driven
// sequences above reach that state only through OnUpdate, which
// re-pushes the frame at once: an eviction from ASB's main part needs an
// empty overflow.
func TestASBWindowSpansMain(t *testing.T) {
	const capacity = 10
	for _, pol := range []buffer.Policy{
		NewASB(capacity, ASBOptions{InitialCandFrac: 1}),
		NewSLRU(page.CritA, 4),
		NewSpatial(page.CritA),
	} {
		c := checkWindow(t, pol)
		admit := func(id int) {
			if c.asb == nil && c.w.order.Len() == capacity {
				c.OnEvict(c.Victim(buffer.AccessContext{}).Frame)
			}
			side := float64(1 + id%3)
			meta := page.Meta{ID: page.ID(id), MBR: geom.NewRect(0, 0, side, side)}
			c.OnAdmit(&buffer.Frame{Meta: meta, Slot: -1}, uint64(id), buffer.AccessContext{})
		}
		for id := 1; id <= 12; id++ {
			admit(id)
		}
		if c.w.edge == nil || c.w.win.Len() != min(c.w.cand, c.w.order.Len()) {
			t.Fatalf("%s: window holds %d of %d frames at cand %d", c.Name(), c.w.win.Len(), c.w.order.Len(), c.w.cand)
		}
		for c.w.order.Len() > 0 {
			c.OnEvict(c.w.order.Front())
		}
		for id := 13; id <= 24; id++ {
			admit(id)
		}
		if want := map[bool]int{true: 6, false: 4}[c.asb != nil]; c.picks < want {
			t.Fatalf("%s: only %d picks, want ≥ %d", c.Name(), c.picks, want)
		}
	}
}

func FuzzASBDemotion(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(windowOps(seed, 300))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runWindowCheck(t, ops) })
}
