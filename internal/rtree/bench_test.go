package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
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
// in DESIGN.md §5a.4, not a claim of its own.
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

// BenchmarkWindowQuery measures 30 × 30 window queries on a 50k-object
// tree, in the rows benchQueries runs.
func BenchmarkWindowQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchQueries(b, func() geom.Rect {
		return geom.RectFromCenter(geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, 30, 30)
	})
}

// BenchmarkPointQuery measures point queries on a 50k-object tree, in the
// rows benchQueries runs.
func BenchmarkPointQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	benchQueries(b, func() geom.Rect {
		return geom.RectFromPoint(geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	})
}

// benchQueries runs 4 096 queries from next, round and round, in three
// rows: "store" reads every node from the tree's MemStore (its mutex on
// each read); "engine" reads through a warm bare LRU engine that holds
// every page, as TestPointSearchAllocatesNothing sets it up, so that the
// row prices the node scan; "textbook" is the engine row run by the loop
// Search had before its scan went branch-free (DESIGN.md §5a.5).
func benchQueries(b *testing.B, next func() geom.Rect) {
	tr, _ := benchTree(b, 50_000)
	queries := make([]geom.Rect, 4096)
	for i := range queries {
		queries[i] = next()
	}
	pool, err := buffer.NewEngine(tr.Store(), core.NewLRU(), tr.Store().NumPages())
	if err != nil {
		b.Fatal(err)
	}
	for id := page.ID(1); int(id) <= tr.Store().NumPages(); id++ {
		p, err := pool.Get(id, buffer.AccessContext{})
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
	for _, row := range []struct {
		name   string
		rd     Reader
		search func(*Tree, Reader, buffer.AccessContext, geom.Rect, Visit) error
	}{
		{"store", StoreReader{Store: tr.Store()}, (*Tree).Search},
		{"engine", pool, (*Tree).Search},
		{"textbook", pool, textbookSearch},
	} {
		b.Run(row.name, func(b *testing.B) {
			matched := 0
			visit := func(page.Entry) bool { matched++; return true }
			for i := 0; i < b.N; i++ {
				err := row.search(tr, row.rd, buffer.AccessContext{QueryID: uint64(i)}, queries[i%len(queries)], visit)
				if err != nil {
					b.Fatal(err)
				}
			}
			if matched == 0 && b.N >= len(queries) {
				b.Fatal("no query matched anything")
			}
		})
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
