package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
)

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
