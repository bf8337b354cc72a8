package rtree

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// meetsRef is the predicate scanNode computes for one entry, as Go's <=
// states it: the closed intervals overlap on both axes, emptiness not
// asked.
func meetsRef(m, q geom.Rect) bool {
	return m.MinX <= q.MaxX && q.MinX <= m.MaxX && m.MinY <= q.MaxY && q.MinY <= m.MaxY
}

// checkScan runs scanNode over es 64 entries a call, as Search and Join
// do, and fails unless bit i of each mask is meetsRef of that call's
// entry i and no bit at or above the call's length is set.
func checkScan(t testing.TB, es []page.Entry, q geom.Rect) {
	t.Helper()
	for lo := 0; lo < len(es); lo += 64 {
		part := es[lo:min(lo+64, len(es))]
		m := scanNode(part, q)
		if n := len(part); n < 64 && m>>n != 0 {
			t.Fatalf("scanNode over %d entries, query %#v: mask %#x has bits at or above %d", n, q, m, n)
		}
		for i := range part {
			if got, want := m>>i&1 == 1, meetsRef(part[i].MBR, q); got != want {
				t.Fatalf("scanNode over %d entries, query %#v: bit %d (entry %#v) is %v, want %v",
					len(part), q, i, part[i].MBR, got, want)
			}
		}
	}
}

// specials are the coordinates on which a packed comparison could part
// from Go's scalar <=: both zeros, both infinities and NaN, with ±1
// between them.
var specials = []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1), math.NaN()}

// specialRects returns every rectangle over specials: 7⁴ of them, among
// them points, lines, inverted (empty) rectangles, the whole plane and
// rectangles with NaN coordinates.
func specialRects() []geom.Rect {
	var rs []geom.Rect
	for _, a := range specials {
		for _, b := range specials {
			for _, c := range specials {
				for _, d := range specials {
					rs = append(rs, geom.Rect{MinX: a, MinY: b, MaxX: c, MaxY: d})
				}
			}
		}
	}
	return rs
}

// specialRect is r with each coordinate replaced, one time in three, by
// one of specials. One time in eight it is the whole plane instead, which
// meets every entry without a NaN, empty ones included; one time in eight
// it is r with its x bounds swapped, empty but still inside the node.
func specialRect(rng *rand.Rand, r geom.Rect) geom.Rect {
	switch rng.Intn(8) {
	case 0:
		return geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	case 1:
		r.MinX, r.MaxX = r.MaxX, r.MinX
		return r
	}
	for _, c := range []*float64{&r.MinX, &r.MinY, &r.MaxX, &r.MaxY} {
		if rng.Intn(3) == 0 {
			*c = specials[rng.Intn(len(specials))]
		}
	}
	return r
}

// TestScanLayout pins what scan_amd64.s reads: an entry is 48 bytes with
// its MBR first, MinX MinY MaxX MaxY at offsets 0, 8, 16, 24, so that
// [MinX, MinY] and [MaxX, MaxY] are one 16-byte load each.
// storage.TestEntryLayout pins the same struct for the codec.
func TestScanLayout(t *testing.T) {
	var e page.Entry
	if size := unsafe.Sizeof(e); size != 48 {
		t.Errorf("page.Entry is %d bytes, scanNode steps 48", size)
	}
	if off := unsafe.Offsetof(e.MBR); off != 0 {
		t.Errorf("page.Entry.MBR at offset %d, scanNode reads it at 0", off)
	}
	for i, off := range []uintptr{
		unsafe.Offsetof(e.MBR.MinX), unsafe.Offsetof(e.MBR.MinY),
		unsafe.Offsetof(e.MBR.MaxX), unsafe.Offsetof(e.MBR.MaxY),
	} {
		if off != uintptr(8*i) {
			t.Errorf("coordinate %d of geom.Rect at offset %d, scanNode reads it at %d", i, off, 8*i)
		}
	}
}

// TestScanNodeExhaustive: every entry MBR over {−Inf, −1, −0, 0, 1, +Inf,
// NaN}⁴ against every query over the same set (a point query, inverted
// queries and the infinite query among them) gives the scalar answer.
func TestScanNodeExhaustive(t *testing.T) {
	rects := specialRects()
	es := make([]page.Entry, len(rects))
	for i, r := range rects {
		es[i].MBR = r
	}
	for _, q := range rects {
		checkScan(t, es, q)
	}
}

// TestScanNodeLengthsAndOffsets: for every length from 0 to
// storage.MaxEntries and every start offset into a backing slice, seen
// from two bases 8 bytes apart so that one of them is not 16-byte
// aligned, scanNode gives the scalar answer and sets no bit at or above
// the length. The backing's other entries meet the query too, so a read
// past either end of the slice would show.
func TestScanNodeLengthsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const n = 2 * storage.MaxEntries
	words := make([]uint64, 6*n+1)
	queries := []geom.Rect{
		geom.RectFromPoint(geom.Point{X: 0.5, Y: 0.5}),
		geom.NewRect(0, 0, 1, 1),
		{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)},
	}
	for skip := 0; skip < 2; skip++ {
		backing := unsafe.Slice((*page.Entry)(unsafe.Pointer(&words[skip])), n)
		for i := range backing {
			r := geom.RectFromCenter(geom.Point{X: rng.Float64(), Y: rng.Float64()}, rng.Float64(), rng.Float64())
			backing[i] = page.Entry{MBR: specialRect(rng, r), ObjID: uint64(i)}
		}
		for length := 0; length <= storage.MaxEntries; length++ {
			for off := 0; off+length <= n; off++ {
				for _, q := range queries {
					checkScan(t, backing[off:off+length], q)
				}
			}
		}
	}
}

// FuzzNodeScan: a query and up to storage.MaxEntries entries, each
// coordinate one byte: its low three bits pick one of specials, or with 7
// a small finite value from the whole byte, so that equal coordinates are
// common. scanNode must give the scalar answer. CI runs it for ten
// seconds.
func FuzzNodeScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 3, 3})
	f.Add([]byte{0, 0, 5, 5, 6, 2, 6, 2, 2, 3, 4, 4})
	f.Add([]byte("a query and a node full of entries that meet it, or not"))
	f.Fuzz(func(t *testing.T, data []byte) {
		coord := func(b byte) float64 {
			if b&7 == 7 {
				return float64(int8(b)) / 8
			}
			return specials[b&7]
		}
		rect := func(b []byte) geom.Rect {
			return geom.Rect{MinX: coord(b[0]), MinY: coord(b[1]), MaxX: coord(b[2]), MaxY: coord(b[3])}
		}
		if len(data) < 4 {
			return
		}
		q := rect(data)
		var es []page.Entry
		for b := data[4:]; len(b) >= 4 && len(es) < storage.MaxEntries; b = b[4:] {
			es = append(es, page.Entry{MBR: rect(b)})
		}
		checkScan(t, es, q)
	})
}

// scramble rewrites about a fifth of the pages of s, giving one to three
// entries of each an MBR with special coordinates (specialRect).
func scramble(t *testing.T, rng *rand.Rand, s *storage.MemStore) {
	t.Helper()
	for id := page.ID(1); int(id) <= s.NumPages(); id++ {
		p, err := s.Read(id)
		if err != nil || rng.Intn(5) > 0 || len(p.Entries) == 0 {
			continue
		}
		c := p.Clone()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			e := &c.Entries[rng.Intn(len(c.Entries))]
			e.MBR = specialRect(rng, e.MBR)
		}
		if err := s.Write(c); err != nil {
			t.Fatal(err)
		}
	}
}

// wideParams are fan-outs of storage.MaxEntries, the most a page holds:
// a node of more than 64 entries takes two scanNode calls.
func wideParams() Params {
	return Params{MaxDirEntries: storage.MaxEntries, MaxDataEntries: storage.MaxEntries, MinFillFrac: 0.4, ReinsertFrac: 0.3}
}

// buildWide builds a tree with wideParams over objs.
func buildWide(t *testing.T, objs []obj) (*Tree, *storage.MemStore) {
	t.Helper()
	s := storage.NewMemStore()
	tr, err := New(s, wideParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tr.Insert(o.id, o.mbr); err != nil {
			t.Fatal(err)
		}
	}
	return tr, s
}

// TestSearchWideNodesMatchTextbookLoop is TestSearchMatchesTextbookLoop
// on trees whose nodes hold up to storage.MaxEntries entries, so that
// Search's second scanNode call per node is taken: the same pages read
// in the same order, the same entries visited in the same order, early
// stops included, on scrambled trees and special queries.
func TestSearchWideNodesMatchTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5454))
	wide := 0
	for tree := 0; tree < 6; tree++ {
		objs := randObjs(rng, 1500+rng.Intn(3000))
		tr, s := buildWide(t, objs)
		_ = tr.walk(tr.root, func(p *page.Page) error {
			if len(p.Entries) > 64 {
				wide++
			}
			return nil
		})
		scramble(t, rng, s)
		for q := 0; q < 100; q++ {
			o := objs[rng.Intn(len(objs))].mbr.Center()
			query := geom.RectFromPoint(o)
			switch rng.Intn(3) {
			case 1:
				query = geom.RectFromCenter(o, rng.Float64()*300, rng.Float64()*300)
			case 2:
				query = specialRect(rng, geom.RectFromCenter(o, rng.Float64()*300, rng.Float64()*300))
			}
			stopAt := 0
			if rng.Intn(3) == 0 {
				stopAt = 1 + rng.Intn(100)
			}
			run := func(search func(*Tree, Reader, buffer.AccessContext, geom.Rect, Visit) error) searchRun {
				rd := &recordingReader{rd: StoreReader{Store: s}}
				var out searchRun
				out.err = search(tr, rd, buffer.AccessContext{QueryID: uint64(q)}, query, func(e page.Entry) bool {
					m := e.MBR
					out.visited = append(out.visited, [5]uint64{
						math.Float64bits(m.MinX), math.Float64bits(m.MinY),
						math.Float64bits(m.MaxX), math.Float64bits(m.MaxY), e.ObjID,
					})
					return len(out.visited) != stopAt
				})
				out.ids = rd.ids
				if ids := rd.unreleased(); len(ids) > 0 {
					t.Fatalf("tree %d, query %#v: pages %v read and not released", tree, query, ids)
				}
				return out
			}
			if got, want := run((*Tree).Search), run(textbookSearch); !got.equal(want) {
				t.Fatalf("tree %d, query %#v, stop at %d:\nSearch   read %v, visited %d entries\ntextbook read %v, visited %d entries",
					tree, query, stopAt, got.ids, len(got.visited), want.ids, len(want.visited))
			}
		}
	}
	if wide == 0 {
		t.Fatal("no node of more than 64 entries: the second scanNode call went untested")
	}
	t.Logf("%d nodes of more than 64 entries", wide)
}

// BenchmarkNodeScan prices the node scan alone, in ns per entry: point
// queries at object centres against 128 nodes of benchTree (about
// 200 KiB, so L2-resident). "kernel" is scanNode; "scalar" is the loop
// Search had before it (DESIGN.md §5a.5): per entry the four comparisons
// counted, as geom's meets counts them, and the entry's emptiness.
func BenchmarkNodeScan(b *testing.B) {
	tr, objs := benchTree(b, 50_000)
	var nodes []*page.Page
	_ = tr.walk(tr.root, func(p *page.Page) error {
		if len(nodes) < 128 {
			nodes = append(nodes, p)
		}
		return nil
	})
	scalar := func(es []page.Entry, q geom.Rect) uint64 {
		var mask uint64
		for i := range es {
			m := &es[i].MBR
			var n int
			if m.MinX <= q.MaxX {
				n++
			}
			if q.MinX <= m.MaxX {
				n++
			}
			if m.MinY <= q.MaxY {
				n++
			}
			if q.MinY <= m.MaxY {
				n++
			}
			if n == 4 && !m.IsEmpty() {
				mask |= 1 << i
			}
		}
		return mask
	}
	for _, row := range []struct {
		name string
		scan func([]page.Entry, geom.Rect) uint64
	}{{"kernel", scanNode}, {"scalar", scalar}} {
		b.Run(row.name, func(b *testing.B) {
			entries := 0
			for i := 0; i < b.N; i++ {
				es := nodes[i%len(nodes)].Entries
				q := geom.RectFromPoint(objs[i%len(objs)].mbr.Center())
				for lo := 0; lo < len(es); lo += 64 {
					sinkMask ^= row.scan(es[lo:min(lo+64, len(es))], q)
				}
				entries += len(es)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
		})
	}
}

// sinkMask keeps the benchmarked scan alive.
var sinkMask uint64
