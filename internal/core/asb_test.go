package core_test

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/page"
)

func TestASBPanicsOnTinyCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewASB(1) should panic")
		}
	}()
	core.NewASB(1, core.DefaultASBOptions())
}

func TestASBDefaultSizing(t *testing.T) {
	// Paper §4.3: overflow 20% of the buffer, initial candidate 25% of
	// the remaining part, steps of 1% of the remaining part.
	p := core.NewASB(1000, core.DefaultASBOptions())
	if p.OverflowCapacity() != 200 {
		t.Errorf("overflow = %d, want 200", p.OverflowCapacity())
	}
	if p.MainCapacity() != 800 {
		t.Errorf("main = %d, want 800", p.MainCapacity())
	}
	if p.CandidateSize() != 200 {
		t.Errorf("initial candidate = %d, want 200 (25%% of 800)", p.CandidateSize())
	}
	if p.Name() != "ASB" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestASBSmallCapacitySizing(t *testing.T) {
	// Even tiny buffers get a non-empty overflow part and a valid
	// candidate size.
	for capacity := 2; capacity <= 12; capacity++ {
		p := core.NewASB(capacity, core.DefaultASBOptions())
		if p.OverflowCapacity() < 1 {
			t.Errorf("cap %d: overflow %d", capacity, p.OverflowCapacity())
		}
		if p.MainCapacity() < 1 {
			t.Errorf("cap %d: main %d", capacity, p.MainCapacity())
		}
		if p.MainCapacity()+p.OverflowCapacity() != capacity {
			t.Errorf("cap %d: parts do not sum", capacity)
		}
		if c := p.CandidateSize(); c < 1 || c > p.MainCapacity() {
			t.Errorf("cap %d: candidate %d outside [1,%d]", capacity, c, p.MainCapacity())
		}
	}
}

// asbFrame builds a frame with a single square entry of the given area,
// admitted at time now.
func asbFrame(id page.ID, area float64, now uint64) *buffer.Frame {
	p := page.New(id, page.TypeData, 0, 1)
	side := math.Sqrt(area)
	p.Append(page.Entry{MBR: geom.NewRect(0, 0, side, side)})
	p.Recompute()
	return &buffer.Frame{Meta: p.Meta, Page: p, LastUse: now}
}

// driveASB admits frames with areas[i] at times 1..n and returns the
// policy plus the frames (1-indexed by page ID).
func driveASB(capacity int, areas []float64, opts core.ASBOptions) (*core.ASB, []*buffer.Frame) {
	p := core.NewASB(capacity, opts)
	frames := make([]*buffer.Frame, len(areas)+1)
	for i, a := range areas {
		f := asbFrame(page.ID(i+1), a, uint64(i+1))
		frames[i+1] = f
		p.OnAdmit(f, uint64(i+1), buffer.AccessContext{QueryID: uint64(i + 1)})
	}
	return p, frames
}

// The direct-drive adaptation tests use capacity 10 → main 8, overflow 2,
// candidate 2, step 1. Admitting ten pages demotes two into the overflow
// buffer: at admit #9 the candidate set is {page1, page2} and at admit #10
// it is {page1 or page3, ...}, so the page areas below choose the
// demotion order deliberately.

func TestASBAdaptIncreasesTowardSpatial(t *testing.T) {
	// Capacity 15 → main 12, overflow 3, candidate 3. The three demoted
	// pages are page2 (area 3), page3 (area 4) and page1 (area 5).
	// Re-request page1: both other overflow pages are more recently used
	// (better LRU) and spatially worse — LRU misjudged the re-referenced
	// page by a clear margin, so the candidate set must GROW (toward the
	// spatial strategy).
	areas := []float64{5, 3, 4, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveASB(15, areas, core.DefaultASBOptions())
	if p.OverflowLen() != 3 {
		t.Fatalf("overflow = %d, want 3", p.OverflowLen())
	}
	before := p.CandidateSize()
	p.OnHit(frames[1], 16, buffer.AccessContext{QueryID: 16})
	if got := p.CandidateSize(); got != before+1 {
		t.Errorf("candidate = %d, want %d (increase)", got, before+1)
	}
	if p.Adaptations() != 1 {
		t.Errorf("adaptations = %d, want 1", p.Adaptations())
	}
}

func TestASBAdaptIncreaseRequiresMargin(t *testing.T) {
	// With only one other overflow page, a 1-page better-LRU majority is
	// within the sampling-bias margin: the candidate size must NOT grow.
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveASB(10, areas, core.DefaultASBOptions())
	if p.OverflowLen() != 2 {
		t.Fatalf("overflow = %d, want 2", p.OverflowLen())
	}
	before := p.CandidateSize()
	p.OnHit(frames[1], 11, buffer.AccessContext{QueryID: 11})
	if got := p.CandidateSize(); got != before {
		t.Errorf("candidate = %d, want %d (within margin, unchanged)", got, before)
	}
	if p.Adaptations() != 1 {
		t.Errorf("adaptations = %d, want 1 (event still recorded)", p.Adaptations())
	}
}

func TestASBAdaptDecreasesTowardLRU(t *testing.T) {
	// Re-request page2 instead: it was demoted *because of* its small
	// area while page1 (better spatial criterion, older use) stayed
	// spatially preferred. The spatial strategy misjudged the
	// re-referenced page, so the candidate set must SHRINK (toward LRU).
	// Shrinking moves at TWICE the base step (robustness bias, see
	// DESIGN.md §5a); here 2·step from 2 clamps at the floor of 1.
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveASB(10, areas, core.DefaultASBOptions())
	p.OnHit(frames[2], 11, buffer.AccessContext{QueryID: 11})
	if got := p.CandidateSize(); got != 1 {
		t.Errorf("candidate = %d, want 1 (2·step decrease, clamped)", got)
	}
}

func TestASBAdaptBalancedKeepsSize(t *testing.T) {
	// Overflow: page1 (area 5, older), page2 (area 7, newer). Hitting
	// page1 sees one better-spatial page and one better-LRU page → equal
	// counts → candidate size unchanged (§4.2 case 3).
	areas := []float64{5, 7, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveASB(10, areas, core.DefaultASBOptions())
	if p.OverflowLen() != 2 {
		t.Fatalf("overflow = %d, want 2", p.OverflowLen())
	}
	before := p.CandidateSize()
	p.OnHit(frames[1], 11, buffer.AccessContext{QueryID: 11})
	if got := p.CandidateSize(); got != before {
		t.Errorf("candidate = %d, want %d (unchanged)", got, before)
	}
	if p.Adaptations() != 1 {
		t.Error("balanced case still counts as an adaptation event")
	}
}

func TestASBCandidateClamped(t *testing.T) {
	// Repeated shrink signals must never push the candidate size below 1.
	opts := core.DefaultASBOptions()
	opts.StepFrac = 1.0 // one step spans the whole main part
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveASB(10, areas, opts)
	for i := 0; i < 5; i++ {
		p.OnHit(frames[2], uint64(20+i), buffer.AccessContext{QueryID: uint64(20 + i)})
		if c := p.CandidateSize(); c < 1 || c > p.MainCapacity() {
			t.Fatalf("candidate %d out of range", c)
		}
		// Push it back out so the next hit adapts again.
		p.OnEvict(frames[2])
		p.OnAdmit(frames[2], uint64(30+i), buffer.AccessContext{QueryID: uint64(30 + i)})
	}
}

func TestASBAdaptEvents(t *testing.T) {
	// An overflow hit emits one OverflowPromotion (the §4.2 signal) and
	// one Adapt event, through the request's context, to the sink the
	// engine holds.
	rec := obs.NewTrajectoryRecorder()
	var counters obs.Counters
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	specs := make([]pageSpec, len(areas))
	for i, a := range areas {
		specs[i] = dataPage(a)
	}
	p := core.NewASB(10, core.DefaultASBOptions())
	e, err := buffer.NewEngine(buildStore(t, specs), p, 10)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSink(obs.Tee(rec, &counters))
	// Ten admissions at times 1..10 (pages 2 and 1 end up in the overflow
	// buffer), then the overflow hit on page 1 at time 11.
	for _, id := range []page.ID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1} {
		if _, err := e.Get(id, buffer.AccessContext{QueryID: uint64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Len() != 1 || rec.Cand[0] != p.CandidateSize() || rec.Ref[0] != 11 {
		t.Errorf("recorder saw %v at %v, candidate = %d at request 11", rec.Cand, rec.Ref, p.CandidateSize())
	}
	s := counters.Snapshot()
	if s.Promotions != 1 || s.Adaptations != 1 {
		t.Errorf("counters = %+v, want 1 promotion and 1 adaptation", s)
	}
}

func TestASBVictimIsOverflowFIFOHead(t *testing.T) {
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveASB(10, areas, core.DefaultASBOptions())
	// Overflow FIFO: page2 (demoted first), page1. Victim = page2.
	v := p.Victim(buffer.AccessContext{}).Frame
	if v != frames[2] {
		t.Errorf("victim = page %d, want 2", v.Meta.ID)
	}
	p.OnEvict(v)
	if v2 := p.Victim(buffer.AccessContext{}).Frame; v2 != frames[1] {
		t.Errorf("second victim = page %d, want 1", v2.Meta.ID)
	}
}

func TestASBVictimFallsBackToMainWhenOverflowEmpty(t *testing.T) {
	// Before any demotion the overflow buffer is empty; eviction must
	// still work (SLRU victim from the main part).
	areas := []float64{5, 3, 10}
	p, _ := driveASB(10, areas, core.DefaultASBOptions())
	if p.OverflowLen() != 0 {
		t.Fatalf("overflow = %d, want 0", p.OverflowLen())
	}
	v := p.Victim(buffer.AccessContext{}).Frame
	if v == nil {
		t.Fatal("victim = nil")
	}
	// Candidate set is 2 (LRU end = pages 1,2); the smaller area wins.
	if v.Meta.ID != 2 {
		t.Errorf("victim = page %d, want 2", v.Meta.ID)
	}
}

func TestASBMainHitRefreshesRecency(t *testing.T) {
	// A hit in the main part must not adapt and must refresh LRU order.
	areas := []float64{5, 3, 10, 10}
	p, frames := driveASB(10, areas, core.DefaultASBOptions())
	before := p.CandidateSize()
	p.OnHit(frames[1], 20, buffer.AccessContext{QueryID: 20})
	frames[1].LastUse = 20
	if p.CandidateSize() != before || p.Adaptations() != 0 {
		t.Error("main-part hit must not adapt")
	}
	// Page 1 is now MRU; the demotion candidate set is {2,3} → page 2.
	if v := p.Victim(buffer.AccessContext{}).Frame; v.Meta.ID != 2 {
		t.Errorf("victim = page %d, want 2", v.Meta.ID)
	}
}

func TestASBReset(t *testing.T) {
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveASB(10, areas, core.DefaultASBOptions())
	p.OnHit(frames[1], 11, buffer.AccessContext{QueryID: 11}) // adapts
	p.Reset()
	if p.CandidateSize() != 2 {
		t.Errorf("candidate after reset = %d, want initial 2", p.CandidateSize())
	}
	if p.OverflowLen() != 0 || p.Adaptations() != 0 {
		t.Error("reset left state behind")
	}
}

func TestASBManagerIntegrationInvariants(t *testing.T) {
	// Random churn through a real manager: sizes stay within bounds, the
	// buffer never exceeds capacity, and overflow hits are buffer hits
	// (they cost no physical read).
	rng := rand.New(rand.NewSource(77))
	const numPages = 60
	specs := make([]pageSpec, numPages)
	for i := range specs {
		specs[i] = dataPage(float64(rng.Intn(200) + 1))
	}
	s := buildStore(t, specs)
	pol := core.NewASB(10, core.DefaultASBOptions())
	m := mustEngine(t, s, pol, 10)

	for i := 0; i < 5000; i++ {
		id := page.ID(rng.Intn(numPages) + 1)
		if _, err := m.Get(id, buffer.AccessContext{QueryID: uint64(i / 3)}); err != nil {
			t.Fatal(err)
		}
		if m.Len() > 10 {
			t.Fatalf("buffer overflow: %d frames", m.Len())
		}
		if p := pol.OverflowLen(); p > pol.OverflowCapacity() {
			t.Fatalf("overflow part overflow: %d > %d", p, pol.OverflowCapacity())
		}
		if c := pol.CandidateSize(); c < 1 || c > pol.MainCapacity() {
			t.Fatalf("candidate size %d out of range", c)
		}
	}
	st := m.Stats()
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("stats inconsistent: %+v", st)
	}
	// Physical reads equal logical misses: overflow hits cost nothing.
	if got := s.Stats().Reads; got != st.Misses {
		t.Errorf("physical reads %d != misses %d", got, st.Misses)
	}
	if pol.Adaptations() == 0 {
		t.Error("expected at least one adaptation under churn")
	}
}

func TestASBMatchesSLRUWithoutOverflowHits(t *testing.T) {
	// When every page is requested exactly once (no overflow hits, no
	// adaptation), ASB evicts in demotion order, which for a scan
	// workload is the same set of misses as any policy: all of them.
	s := buildStore(t, uniformPages(30, 1))
	var seq []access
	for i := 1; i <= 30; i++ {
		seq = append(seq, q(page.ID(i), uint64(i)))
	}
	misses := run(t, s, core.NewASB(10, core.DefaultASBOptions()), 10, seq)
	if len(misses) != 30 {
		t.Errorf("misses = %d, want 30", len(misses))
	}
}

// TestASBFillsCacheLines keeps ASB's trailing pad honest: the struct is
// a whole number of 64-byte lines, so a field added to it has to shrink
// the pad by as much.
func TestASBFillsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(core.ASB{}); n%64 != 0 {
		t.Errorf("core.ASB is %d bytes, want a multiple of 64", n)
	}
}
