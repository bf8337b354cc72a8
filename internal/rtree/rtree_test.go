package rtree

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// testParams are small fan-outs so that a few hundred objects already
// produce a multi-level tree exercising splits and reinsertion.
func testParams() Params {
	return Params{MaxDirEntries: 8, MaxDataEntries: 6, MinFillFrac: 0.4, ReinsertFrac: 0.3}
}

// obj is a brute-force reference object.
type obj struct {
	id  uint64
	mbr geom.Rect
}

// randObjs generates n objects with clustered positions and mixed sizes.
func randObjs(rng *rand.Rand, n int) []obj {
	objs := make([]obj, n)
	for i := range objs {
		var x, y float64
		if rng.Intn(4) == 0 { // background noise
			x, y = rng.Float64()*1000, rng.Float64()*1000
		} else { // clusters
			cx := float64(rng.Intn(5))*200 + 100
			cy := float64(rng.Intn(5))*200 + 100
			x = cx + rng.NormFloat64()*30
			y = cy + rng.NormFloat64()*30
		}
		w := rng.Float64() * 5
		h := rng.Float64() * 5
		if rng.Intn(3) == 0 { // points
			w, h = 0, 0
		}
		objs[i] = obj{id: uint64(i + 1), mbr: geom.NewRect(x, y, x+w, y+h)}
	}
	return objs
}

// buildTree inserts objects into a fresh tree over a MemStore.
func buildTree(t *testing.T, objs []obj) (*Tree, *storage.MemStore) {
	t.Helper()
	s := storage.NewMemStore()
	tr, err := New(s, testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tr.Insert(o.id, o.mbr); err != nil {
			t.Fatalf("insert %d: %v", o.id, err)
		}
	}
	return tr, s
}

// searchIDs runs a window query and returns the sorted result IDs.
func searchIDs(t *testing.T, tr *Tree, query geom.Rect) []uint64 {
	t.Helper()
	var ids []uint64
	err := tr.Search(StoreReader{Store: tr.Store()}, buffer.AccessContext{}, query,
		func(e page.Entry) bool {
			ids = append(ids, e.ObjID)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// bruteSearch returns the sorted IDs of objects intersecting query.
func bruteSearch(objs []obj, query geom.Rect) []uint64 {
	var ids []uint64
	for _, o := range objs {
		if o.mbr.Intersects(query) {
			ids = append(ids, o.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func idsMatch(a, b []uint64) bool {
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

func TestNewTree(t *testing.T) {
	s := storage.NewMemStore()
	tr, err := New(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.NumObjects() != 0 {
		t.Errorf("fresh tree: height %d, objects %d", tr.Height(), tr.NumObjects())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("fresh tree invalid: %v", err)
	}
	// Searching an empty tree returns nothing.
	ids := searchIDs(t, tr, geom.NewRect(0, 0, 100, 100))
	if len(ids) != 0 {
		t.Errorf("empty tree returned %v", ids)
	}
}

func TestNewTreeValidation(t *testing.T) {
	s := storage.NewMemStore()
	if _, err := New(nil, DefaultParams()); err == nil {
		t.Error("nil store should fail")
	}
	bad := DefaultParams()
	bad.MaxDataEntries = 2
	if _, err := New(s, bad); err == nil {
		t.Error("tiny fan-out should fail")
	}
	bad = DefaultParams()
	bad.MinFillFrac = 0.9
	if _, err := New(s, bad); err == nil {
		t.Error("MinFillFrac > 0.5 should fail")
	}
	bad = DefaultParams()
	bad.ReinsertFrac = 0
	if _, err := New(s, bad); err == nil {
		t.Error("zero ReinsertFrac should fail")
	}
}

func TestInsertRejectsInvalidMBR(t *testing.T) {
	s := storage.NewMemStore()
	tr, err := New(s, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, geom.EmptyRect()); err == nil {
		t.Error("inserting empty MBR should fail")
	}
	if err := tr.Insert(1, geom.Rect{MinX: math.NaN()}); err == nil {
		t.Error("inserting NaN MBR should fail")
	}
}

func TestInsertAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 6, 7, 50, 500, 2000} {
		objs := randObjs(rng, n)
		tr, _ := buildTree(t, objs)
		if tr.NumObjects() != n {
			t.Errorf("n=%d: NumObjects = %d", n, tr.NumObjects())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestTreeGrowsInHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := randObjs(rng, 2000)
	tr, _ := buildTree(t, objs)
	if tr.Height() < 3 {
		t.Errorf("height = %d, want ≥ 3 for 2000 objects at fan-out 6", tr.Height())
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DataPages < 2000/6 {
		t.Errorf("data pages = %d, implausibly few", st.DataPages)
	}
	if st.DirPages == 0 {
		t.Error("no directory pages")
	}
	if st.NumObjects != 2000 {
		t.Errorf("stats objects = %d", st.NumObjects)
	}
	if st.TotalPages() != st.DirPages+st.DataPages {
		t.Error("TotalPages inconsistent")
	}
	if f := st.DirFraction(); f <= 0 || f >= 1 {
		t.Errorf("DirFraction = %g", f)
	}
}

func TestWindowQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs := randObjs(rng, 1500)
	tr, _ := buildTree(t, objs)
	for trial := 0; trial < 100; trial++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*120, rng.Float64()*120
		query := geom.RectFromCenter(geom.Point{X: cx, Y: cy}, w, h)
		got := searchIDs(t, tr, query)
		want := bruteSearch(objs, query)
		if !idsMatch(got, want) {
			t.Fatalf("trial %d query %v: got %d results, want %d", trial, query, len(got), len(want))
		}
	}
}

func TestPointQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	objs := randObjs(rng, 800)
	tr, _ := buildTree(t, objs)
	for trial := 0; trial < 200; trial++ {
		pt := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		got := searchIDs(t, tr, geom.RectFromPoint(pt))
		want := bruteSearch(objs, geom.RectFromPoint(pt))
		if !idsMatch(got, want) {
			t.Fatalf("trial %d point %v: got %v, want %v", trial, pt, got, want)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := randObjs(rng, 500)
	tr, _ := buildTree(t, objs)
	count := 0
	err := tr.Search(StoreReader{Store: tr.Store()}, buffer.AccessContext{},
		geom.NewRect(0, 0, 1000, 1000),
		func(e page.Entry) bool {
			count++
			return count < 10
		})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("early stop visited %d entries, want 10", count)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := randObjs(rng, 900)
	tr, _ := buildTree(t, objs)

	// Delete a random half.
	perm := rng.Perm(len(objs))
	deleted := make(map[uint64]bool)
	for _, idx := range perm[:450] {
		o := objs[idx]
		found, err := tr.Delete(o.id, o.mbr)
		if err != nil {
			t.Fatalf("delete %d: %v", o.id, err)
		}
		if !found {
			t.Fatalf("object %d not found for deletion", o.id)
		}
		deleted[o.id] = true
	}
	if tr.NumObjects() != 450 {
		t.Errorf("NumObjects = %d, want 450", tr.NumObjects())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after deletes: %v", err)
	}
	// Deleted objects are gone; remaining are found.
	var remaining []obj
	for _, o := range objs {
		if !deleted[o.id] {
			remaining = append(remaining, o)
		}
	}
	for trial := 0; trial < 50; trial++ {
		query := geom.RectFromCenter(
			geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, 100, 100)
		got := searchIDs(t, tr, query)
		want := bruteSearch(remaining, query)
		if !idsMatch(got, want) {
			t.Fatalf("post-delete trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
	// Deleting a missing object reports false.
	found, err := tr.Delete(999999, geom.NewRect(0, 0, 1, 1))
	if err != nil || found {
		t.Errorf("missing delete: found=%v err=%v", found, err)
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objs := randObjs(rng, 300)
	tr, _ := buildTree(t, objs)
	for _, o := range objs {
		found, err := tr.Delete(o.id, o.mbr)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", o.id, found, err)
		}
	}
	if tr.NumObjects() != 0 {
		t.Errorf("NumObjects = %d", tr.NumObjects())
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1 after deleting everything", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("empty-again tree invalid: %v", err)
	}
	// Tree remains usable.
	if err := tr.Insert(1, geom.NewRect(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := searchIDs(t, tr, geom.NewRect(0, 0, 2, 2)); len(got) != 1 {
		t.Errorf("reinsert after empty: %v", got)
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	objs := randObjs(rng, 1200)
	s := storage.NewMemStore()
	tr, err := New(s, testParams())
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]obj)
	next := 0
	for step := 0; step < 2400; step++ {
		if next < len(objs) && (len(live) == 0 || rng.Intn(3) > 0) {
			o := objs[next]
			next++
			if err := tr.Insert(o.id, o.mbr); err != nil {
				t.Fatal(err)
			}
			live[o.id] = o
		} else {
			for id, o := range live {
				found, err := tr.Delete(id, o.mbr)
				if err != nil || !found {
					t.Fatalf("delete %d: %v %v", id, found, err)
				}
				delete(live, id)
				break
			}
		}
	}
	if tr.NumObjects() != len(live) {
		t.Errorf("NumObjects = %d, want %d", tr.NumObjects(), len(live))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var liveObjs []obj
	for _, o := range live {
		liveObjs = append(liveObjs, o)
	}
	query := geom.NewRect(0, 0, 1000, 1000)
	if got, want := searchIDs(t, tr, query), bruteSearch(liveObjs, query); !idsMatch(got, want) {
		t.Errorf("full query: got %d, want %d", len(got), len(want))
	}
}

func TestFileStoreBackedTree(t *testing.T) {
	fs, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "tree.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tr, err := New(fs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	objs := randObjs(rng, 400)
	for _, o := range objs {
		if err := tr.Insert(o.id, o.mbr); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		query := geom.RectFromCenter(
			geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, 80, 80)
		var got []uint64
		err := tr.Search(StoreReader{Store: fs}, buffer.AccessContext{}, query,
			func(e page.Entry) bool { got = append(got, e.ObjID); return true })
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if want := bruteSearch(objs, query); !idsMatch(got, want) {
			t.Fatalf("file-store trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestFinalizeStatsComputesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	objs := randObjs(rng, 300)
	tr, s := buildTree(t, objs)
	if err := tr.FinalizeStats(); err != nil {
		t.Fatal(err)
	}
	// After finalizing, at least one data page should have a positive
	// entry overlap (random clustered rectangles overlap somewhere), and
	// every page's stats must equal a fresh full recompute.
	sawOverlap := false
	err := tr.walk(tr.root, func(p *page.Page) error {
		if p.EntryOverlap > 0 {
			sawOverlap = true
		}
		clone := p.Clone()
		clone.Recompute()
		if clone.Meta != p.Meta {
			t.Errorf("page %d stats stale: %+v vs %+v", p.ID, p.Meta, clone.Meta)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawOverlap {
		t.Error("no page with positive entry overlap after FinalizeStats")
	}
	_ = s
}

func TestQueriesThroughBufferCountIO(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	objs := randObjs(rng, 1000)
	tr, s := buildTree(t, objs)
	s.ResetStats()

	pol := &lruStub{}
	m, err := buffer.NewEngine(s, pol, 16)
	if err != nil {
		t.Fatal(err)
	}
	var q1, q2 uint64
	for trial := 0; trial < 30; trial++ {
		query := geom.RectFromCenter(
			geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, 60, 60)
		err := tr.Search(m, buffer.AccessContext{QueryID: uint64(trial)}, query,
			func(page.Entry) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	q1, q2 = st.Hits, st.Misses
	if q1 == 0 {
		t.Error("expected buffer hits across queries (shared root)")
	}
	if q2 == 0 {
		t.Error("expected buffer misses")
	}
	if s.Stats().Reads != st.Misses {
		t.Errorf("physical reads %d != misses %d", s.Stats().Reads, st.Misses)
	}
}

// lruStub is a minimal LRU policy to avoid importing core (cycle-free
// test of the Reader integration).
type lruStub struct {
	frames []*buffer.Frame
}

func (p *lruStub) Name() string { return "stub" }
func (p *lruStub) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.frames = append(p.frames, f)
}
func (p *lruStub) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {}
func (p *lruStub) Victim(ctx buffer.AccessContext) buffer.Choice {
	var best *buffer.Frame
	for _, f := range p.frames {
		if f.Pinned() {
			continue
		}
		if best == nil || f.LastUse < best.LastUse {
			best = f
		}
	}
	return buffer.Choice{Frame: best}
}
func (p *lruStub) OnEvict(f *buffer.Frame) {
	for i, g := range p.frames {
		if g == f {
			p.frames = append(p.frames[:i], p.frames[i+1:]...)
			return
		}
	}
}
func (p *lruStub) Reset() { p.frames = nil }

func TestPaperFanoutsDirectoryFraction(t *testing.T) {
	// With the paper's fan-outs (51/42), the directory-page share should
	// land near the paper's reported 2.8–2.9%.
	rng := rand.New(rand.NewSource(14))
	s := storage.NewMemStore()
	tr, err := New(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30000; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if err := tr.Insert(uint64(i+1), geom.NewRect(x, y, x+rng.Float64(), y+rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if f := st.DirFraction(); f < 0.015 || f > 0.06 {
		t.Errorf("directory fraction = %.4f, want ≈ 0.028", f)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
