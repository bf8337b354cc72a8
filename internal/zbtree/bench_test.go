package zbtree

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// BenchmarkPoliciesOnZBTree runs uniform window queries over a z-order
// B-tree under each replacement policy and reports the gain over LRU —
// the cross-SAM ablation of DESIGN.md §6 (do the spatial criteria help on
// a different index structure?).
func BenchmarkPoliciesOnZBTree(b *testing.B) {
	gen := dataset.USMainland(1)
	objs := gen.Objects(2, 30_000)
	store := storage.NewMemStore()
	tr, err := New(store, gen.Space, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range objs {
		if err := tr.Insert(o.ID, o.MBR); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.FinalizeStats(); err != nil {
		b.Fatal(err)
	}
	st, err := tr.Stats()
	if err != nil {
		b.Fatal(err)
	}
	frames := st.TotalPages() * 47 / 1000
	rng := rand.New(rand.NewSource(3))
	windows := make([]geom.Rect, 600)
	for i := range windows {
		c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 500}
		windows[i] = geom.RectFromCenter(c, 10, 5).Intersection(gen.Space)
	}

	run := func(pol buffer.Policy) uint64 {
		m, err := buffer.NewEngine(store, pol, frames)
		if err != nil {
			b.Fatal(err)
		}
		for i, w := range windows {
			if w.IsEmpty() {
				continue
			}
			err := tr.WindowQuery(m, buffer.AccessContext{QueryID: uint64(i + 1)}, w,
				func(page.Entry) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
		}
		return m.Stats().DiskReads()
	}
	lru := run(core.NewLRU())

	for _, f := range []core.Factory{
		{Name: "LRU-2", New: func(int) buffer.Policy { return core.NewLRUK(2) }},
		{Name: "A", New: func(int) buffer.Policy { return core.NewSpatial(page.CritA) }},
		{Name: "ASB", New: func(c int) buffer.Policy { return core.NewASB(c, core.DefaultASBOptions()) }},
	} {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var io uint64
			for i := 0; i < b.N; i++ {
				io = run(f.New(frames))
			}
			b.ReportMetric((float64(lru)/float64(io)-1)*100, "gain%")
		})
	}
}
