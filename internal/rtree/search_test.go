package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
)

// textbookSearch is Search as it was before its node scan went branch-free
// (DESIGN.md §5a.5), kept verbatim but for the test of each entry, which is
// the Intersects of that time: the oracle of TestSearchMatchesTextbookLoop
// and the textbook rows of BenchmarkPointQuery and BenchmarkWindowQuery.
func textbookSearch(t *Tree, rd Reader, ctx buffer.AccessContext, query geom.Rect, fn Visit) error {
	// The pending IDs start on the goroutine's stack; 64 slots hold the
	// deepest traversal of every query set up to W-33 at the default
	// scale, and append moves a larger one to the heap.
	var pending [64]page.ID
	stack := append(pending[:0], t.root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, err := rd.Get(id, ctx)
		if err != nil {
			return fmt.Errorf("rtree: search: %w", err)
		}
		if node.Level == 0 {
			for _, e := range node.Entries {
				if textbookIntersects(query, e.MBR) && !fn(e) {
					stack = stack[:0] // fn stopped the query
					break
				}
			}
		} else {
			for _, e := range node.Entries {
				if textbookIntersects(query, e.MBR) {
					stack = append(stack, e.Child)
				}
			}
		}
		node.Release()
	}
	return nil
}

// textbookIntersects is geom.Rect.Intersects as it was: a branch for each
// emptiness test and each of the four comparisons.
func textbookIntersects(r, s geom.Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// recordingReader records the ID of every page a search asks for and
// hands out a leased copy of it holding the caller's reference, so that
// unreleased reads can be told.
type recordingReader struct {
	rd  Reader
	ids []page.ID
	got []*page.Page
}

func (r *recordingReader) Get(id page.ID, ctx buffer.AccessContext) (*page.Page, error) {
	r.ids = append(r.ids, id)
	p, err := r.rd.Get(id, ctx)
	if err != nil {
		return nil, err
	}
	l := page.Leased()
	l.Meta, l.Entries = p.Meta, p.Entries
	l.Unclaim(1)
	r.got = append(r.got, l)
	return l, nil
}

// unreleased returns the IDs of the pages handed out and not released.
func (r *recordingReader) unreleased() []page.ID {
	var ids []page.ID
	for _, p := range r.got {
		if !p.Claim() {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// searchRun is what one search did: the pages it read, in order, and the
// entries it reported (MBR bits and object ID, so that NaN compares equal
// to itself).
type searchRun struct {
	ids     []page.ID
	visited [][5]uint64
	err     error
}

func (a searchRun) equal(b searchRun) bool {
	return slices.Equal(a.ids, b.ids) && slices.Equal(a.visited, b.visited) && (a.err == nil) == (b.err == nil)
}

// TestSearchMatchesTextbookLoop: on random trees, some of whose pages were
// rewritten in the store with empty, inverted, NaN and infinite entry
// MBRs, Search and the textbook loop read the same pages in the same
// order, release every one, and report the same entries in the same
// order, for point, window, empty, inverted, NaN and infinite queries,
// with and without a visitor that stops the query early.
func TestSearchMatchesTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	inf, nan := math.Inf(1), math.NaN()
	// odd returns a rectangle that Intersects handles by its special
	// cases: empty (canonical or inverted on one axis), a NaN or an
	// infinite coordinate, or a degenerate line; near is a point it is
	// placed around.
	odd := func(near geom.Point) geom.Rect {
		r := geom.RectFromCenter(near, rng.Float64()*400, rng.Float64()*400)
		switch rng.Intn(7) {
		case 0:
			return geom.EmptyRect()
		case 1:
			r.MinX, r.MaxX = r.MaxX, r.MinX
		case 2:
			r.MinY, r.MaxY = r.MaxY, r.MinY
		case 3:
			if rng.Intn(2) == 0 {
				r.MinX = nan
			} else {
				r.MaxY = nan
			}
		case 4:
			r.MinX, r.MaxY = -inf, inf
		case 5:
			r = geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
		case 6:
			r.MinY = r.MaxY
		}
		return r
	}
	var queries, pages int
	for tree := 0; tree < 40; tree++ {
		objs := randObjs(rng, rng.Intn(600))
		tr, s := buildTree(t, objs)
		// Rewrite about a fifth of the pages with odd entry MBRs.
		for id := page.ID(1); int(id) <= s.NumPages(); id++ {
			p, err := s.Read(id)
			if err != nil || rng.Intn(5) > 0 || len(p.Entries) == 0 {
				continue
			}
			c := p.Clone()
			for k := 1 + rng.Intn(3); k > 0; k-- {
				e := &c.Entries[rng.Intn(len(c.Entries))]
				e.MBR = odd(e.MBR.Center())
			}
			if err := s.Write(c); err != nil {
				t.Fatal(err)
			}
			pages++
		}
		for q := 0; q < 60; q++ {
			var query geom.Rect
			at := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			if len(objs) > 0 && rng.Intn(2) == 0 {
				at = objs[rng.Intn(len(objs))].mbr.Center()
			}
			switch rng.Intn(3) {
			case 0:
				query = geom.RectFromPoint(at)
			case 1:
				query = geom.RectFromCenter(at, rng.Float64()*300, rng.Float64()*300)
			case 2:
				query = odd(at)
			}
			stopAt := 0 // the visitor stops the query at this match; 0 never
			if rng.Intn(3) == 0 {
				stopAt = 1 + rng.Intn(8)
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
			got, want := run((*Tree).Search), run(textbookSearch)
			if !got.equal(want) {
				t.Fatalf("tree %d, query %#v, stop at %d:\nSearch   read %v, visited %d entries, err %v\ntextbook read %v, visited %d entries, err %v",
					tree, query, stopAt, got.ids, len(got.visited), got.err, want.ids, len(want.visited), want.err)
			}
			if len(got.ids) == 0 {
				t.Fatalf("tree %d, query %#v: no page read (the root is read even for an empty query)", tree, query)
			}
			queries++
		}
	}
	t.Logf("%d queries on 40 trees with %d rewritten pages", queries, pages)
}
