package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// benchTree builds a tree with the paper's fan-outs over n clustered
// objects.
func benchTree(b testing.TB, n int) (*Tree, []obj) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	objs := randObjs(rng, n)
	s := storage.NewMemStore()
	tr, err := New(s, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range objs {
		if err := tr.Insert(o.id, o.mbr); err != nil {
			b.Fatal(err)
		}
	}
	return tr, objs
}

// BenchmarkInsert measures R*-tree insertion throughput (with forced
// reinsertion and R* splits) at the paper's fan-outs.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	objs := randObjs(rng, b.N+1)
	s := storage.NewMemStore()
	tr, err := New(s, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(objs[i].id, objs[i].mbr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChooseSubtree measures ChooseSubtree's overlap-enlargement
// search on a full level-1 node (51 entries) of a built tree, for a point
// and for a small window: supporting evidence for the end-to-end numbers
// of ISSUE 22, not a claim of its own.
func BenchmarkChooseSubtree(b *testing.B) {
	tr, objs := benchTree(b, 50_000)
	var node *page.Page
	_ = tr.walk(tr.root, func(p *page.Page) error {
		if p.Level == 1 && (node == nil || len(p.Entries) > len(node.Entries)) {
			node = p
		}
		return nil
	})
	if len(node.Entries) != tr.params.MaxDirEntries {
		b.Fatalf("fullest level-1 node has %d entries", len(node.Entries))
	}
	for _, bc := range []struct {
		name string
		ext  float64
	}{{"point", 0}, {"window", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := objs[i%len(objs)].mbr.Center()
				sinkIdx = chooseByOverlap(node, geom.RectFromCenter(c, bc.ext, bc.ext))
			}
		})
	}
}

// sinkIdx keeps the benchmarked call alive.
var sinkIdx int

// BenchmarkWindowQuery measures unbuffered window queries on a 50k-object
// tree.
func BenchmarkWindowQuery(b *testing.B) {
	tr, _ := benchTree(b, 50_000)
	rd := StoreReader{Store: tr.Store()}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		w := geom.RectFromCenter(
			geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, 30, 30)
		err := tr.Search(rd, buffer.AccessContext{QueryID: uint64(i)}, w,
			func(page.Entry) bool { matched++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = matched
}

// BenchmarkPointQuery measures point queries.
func BenchmarkPointQuery(b *testing.B) {
	tr, _ := benchTree(b, 50_000)
	rd := StoreReader{Store: tr.Store()}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		err := tr.Search(rd, buffer.AccessContext{QueryID: uint64(i)}, geom.RectFromPoint(p),
			func(page.Entry) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoin measures the synchronized-traversal spatial join of two
// 10k-object trees.
func BenchmarkJoin(b *testing.B) {
	lt, _ := benchTree(b, 10_000)
	rt, _ := benchTree(b, 10_000)
	rdL := StoreReader{Store: lt.Store()}
	rdR := StoreReader{Store: rt.Store()}
	b.ResetTimer()
	pairs := 0
	for i := 0; i < b.N; i++ {
		err := Join(lt, rt, rdL, rdR, buffer.AccessContext{QueryID: uint64(i)},
			func(JoinPair) bool { pairs++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = pairs
}
