package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
)

// textbookJoin is Join as it was before its loops went through scanNode
// (DESIGN.md §5a.5), kept verbatim: the oracle of
// TestJoinMatchesTextbookLoop.
func textbookJoin(left, right *Tree, rdL, rdR Reader, ctx buffer.AccessContext, fn JoinVisit) error {
	type task struct {
		l, r page.ID
	}
	stack := []task{{left.root, right.root}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nl, err := rdL.Get(tk.l, ctx)
		if err != nil {
			return fmt.Errorf("rtree: join left: %w", err)
		}
		nr, err := rdR.Get(tk.r, ctx)
		if err != nil {
			return fmt.Errorf("rtree: join right: %w", err)
		}
		if !nl.MBR.Intersects(nr.MBR) {
			continue
		}
		switch {
		case nl.Level == 0 && nr.Level == 0:
			for _, el := range nl.Entries {
				for _, er := range nr.Entries {
					if el.MBR.Intersects(er.MBR) {
						if !fn(JoinPair{Left: el, Right: er}) {
							return nil
						}
					}
				}
			}
		case nl.Level > 0 && (nr.Level == 0 || nl.Level >= nr.Level):
			// Expand the left (taller) node against the right node.
			for _, el := range nl.Entries {
				if el.MBR.Intersects(nr.MBR) {
					stack = append(stack, task{el.Child, tk.r})
				}
			}
		default:
			// Expand the right node.
			for _, er := range nr.Entries {
				if er.MBR.Intersects(nl.MBR) {
					stack = append(stack, task{tk.l, er.Child})
				}
			}
		}
	}
	return nil
}

// TestJoinMatchesTextbookLoop: on pairs of trees of unequal heights, at
// the test fan-outs and at storage.MaxEntries (nodes of more than 64
// entries), with about a fifth of their pages scrambled (empty, inverted,
// NaN and infinite entry MBRs), Join and the textbook loop read the same
// pages of each tree in the same order and report the same pairs in the
// same order, with and without an early stop.
func TestJoinMatchesTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5455))
	type run struct {
		left, right []page.ID
		pairs       [][2]uint64
	}
	for trial := 0; trial < 16; trial++ {
		build := buildTree
		if trial%2 == 1 {
			build = buildWide
		}
		left, right := randObjs(rng, rng.Intn(3000)), randObjs(rng, rng.Intn(600))
		for i := range right {
			right[i].id += 1 << 32
		}
		lt, ls := build(t, left)
		rt, rs := build(t, right)
		scramble(t, rng, ls)
		scramble(t, rng, rs)
		stopAt := 0
		if rng.Intn(3) == 0 {
			stopAt = 1 + rng.Intn(200)
		}
		join := func(join func(*Tree, *Tree, Reader, Reader, buffer.AccessContext, JoinVisit) error) run {
			rdL := &recordingReader{rd: StoreReader{Store: ls}}
			rdR := &recordingReader{rd: StoreReader{Store: rs}}
			var out run
			err := join(lt, rt, rdL, rdR, buffer.AccessContext{QueryID: uint64(trial)}, func(p JoinPair) bool {
				out.pairs = append(out.pairs, [2]uint64{p.Left.ObjID, p.Right.ObjID})
				return len(out.pairs) != stopAt
			})
			if err != nil {
				t.Fatal(err)
			}
			out.left, out.right = rdL.ids, rdR.ids
			return out
		}
		got, want := join(Join), join(textbookJoin)
		if !slices.Equal(got.left, want.left) || !slices.Equal(got.right, want.right) || !slices.Equal(got.pairs, want.pairs) {
			t.Fatalf("trial %d, stop at %d: Join read %d+%d pages and found %d pairs, textbook %d+%d and %d",
				trial, stopAt, len(got.left), len(got.right), len(got.pairs), len(want.left), len(want.right), len(want.pairs))
		}
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	left := randObjs(rng, 500)
	right := randObjs(rng, 400)
	lt, _ := buildTree(t, left)
	rt, _ := buildTree(t, right)

	type pair struct{ l, r uint64 }
	var got []pair
	err := Join(lt, rt,
		StoreReader{Store: lt.Store()}, StoreReader{Store: rt.Store()},
		buffer.AccessContext{QueryID: 1},
		func(p JoinPair) bool {
			got = append(got, pair{p.Left.ObjID, p.Right.ObjID})
			return true
		})
	if err != nil {
		t.Fatal(err)
	}

	var want []pair
	for _, l := range left {
		for _, r := range right {
			if l.mbr.Intersects(r.mbr) {
				want = append(want, pair{l.id, r.id})
			}
		}
	}
	lessP := func(ps []pair) func(i, j int) bool {
		return func(i, j int) bool {
			if ps[i].l != ps[j].l {
				return ps[i].l < ps[j].l
			}
			return ps[i].r < ps[j].r
		}
	}
	sort.Slice(got, lessP(got))
	sort.Slice(want, lessP(want))
	if len(got) != len(want) {
		t.Fatalf("join found %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no intersecting pairs")
	}
}

func TestJoinUnbalancedHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	big := randObjs(rng, 1500)
	small := randObjs(rng, 10)
	bt, _ := buildTree(t, big)
	st, _ := buildTree(t, small)
	if bt.Height() <= st.Height() {
		t.Skip("trees not height-unbalanced with this seed")
	}
	count := 0
	err := Join(bt, st,
		StoreReader{Store: bt.Store()}, StoreReader{Store: st.Store()},
		buffer.AccessContext{}, func(JoinPair) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, l := range big {
		for _, r := range small {
			if l.mbr.Intersects(r.mbr) {
				want++
			}
		}
	}
	if count != want {
		t.Errorf("unbalanced join found %d, want %d", count, want)
	}
}

func TestJoinEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	objs := randObjs(rng, 300)
	lt, _ := buildTree(t, objs)
	rt, _ := buildTree(t, objs)
	count := 0
	err := Join(lt, rt,
		StoreReader{Store: lt.Store()}, StoreReader{Store: rt.Store()},
		buffer.AccessContext{}, func(JoinPair) bool { count++; return count < 5 })
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop after %d pairs, want 5", count)
	}
}

// failingReader fails every Get after the first ok.
type failingReader struct {
	rd Reader
	ok int
}

func (r *failingReader) Get(id page.ID, ctx buffer.AccessContext) (*page.Page, error) {
	if r.ok == 0 {
		return nil, fmt.Errorf("page %d: read failed", id)
	}
	r.ok--
	return r.rd.Get(id, ctx)
}

// TestJoinReleasesWhatItReads: every page Join reads from either tree is
// released exactly once (a second Release panics), on a full join, on
// one a visitor stops early, and on one whose right reader fails partway.
func TestJoinReleasesWhatItReads(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	left, right := randObjs(rng, 2000), randObjs(rng, 2000)
	for i := range right {
		right[i].id += 1 << 32
	}
	lt, ls := buildTree(t, left)
	rt, rs := buildTree(t, right)
	for _, tc := range []struct {
		name   string
		stopAt int // the visitor stops the join at this pair; 0 never
		failAt int // the right reader fails after this many reads; 0 never
	}{
		{"full", 0, 0},
		{"early stop", 40, 0},
		{"right read fails", 0, 25},
	} {
		rdL := &recordingReader{rd: StoreReader{Store: ls}}
		var right Reader = StoreReader{Store: rs}
		if tc.failAt > 0 {
			right = &failingReader{rd: right, ok: tc.failAt}
		}
		rdR := &recordingReader{rd: right}
		pairs := 0
		err := Join(lt, rt, rdL, rdR, buffer.AccessContext{QueryID: 1}, func(JoinPair) bool {
			pairs++
			return pairs != tc.stopAt
		})
		if (err != nil) != (tc.failAt > 0) {
			t.Fatalf("%s: Join returned %v", tc.name, err)
		}
		if tc.stopAt > 0 && pairs != tc.stopAt {
			t.Fatalf("%s: Join visited %d pairs, want %d", tc.name, pairs, tc.stopAt)
		}
		if len(rdL.got) < 2 || len(rdR.got) < 2 {
			t.Fatalf("%s: degenerate test: Join read %d+%d pages", tc.name, len(rdL.got), len(rdR.got))
		}
		if l, r := rdL.unreleased(), rdR.unreleased(); len(l) > 0 || len(r) > 0 {
			t.Errorf("%s: Join did not release %d of the %d left pages and %d of the %d right pages it read",
				tc.name, len(l), len(rdL.got), len(r), len(rdR.got))
		}
	}
}
