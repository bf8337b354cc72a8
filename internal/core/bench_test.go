package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/page"
)

// benchAccesses builds a skewed synthetic reference string over pages of
// mixed areas.
func benchAccesses(numPages, n int) ([]access, []pageSpec) {
	rng := rand.New(rand.NewSource(1))
	specs := make([]pageSpec, numPages)
	for i := range specs {
		specs[i] = dataPage(float64(rng.Intn(500) + 1))
	}
	seq := make([]access, n)
	for i := range seq {
		var id int
		if rng.Intn(2) == 0 {
			id = rng.Intn(numPages/10) + 1 // hot subset
		} else {
			id = rng.Intn(numPages) + 1
		}
		seq[i] = q(pageID(id), uint64(i/4))
	}
	return seq, specs
}

// BenchmarkPolicyOps measures per-request overhead of each policy at a
// 256-frame buffer on a skewed reference string.
func BenchmarkPolicyOps(b *testing.B) {
	const numPages = 2048
	seq, specs := benchAccesses(numPages, 1<<16)
	for _, f := range core.StandardFactories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			s := buildStoreB(b, specs)
			m, err := buffer.NewEngine(s, f.New(256), 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := seq[i%len(seq)]
				if _, err := m.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkASBDemotion prices one admission into a full ASB whose
// candidate set is its whole main part (cand = mainCap), the case of the
// scan's worst cost: the overflow's head is evicted, and the new page
// pushes the main part's SLRU victim into the overflow. Main parts of 30,
// 300 and 2 600 frames span the bench database's 4.7 % buffer up to DB1
// at paper scale, 4.7 %.
func BenchmarkASBDemotion(b *testing.B) {
	for _, c := range []int{30, 300, 2600} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			capacity := c * 5 / 4 // the overflow buffer takes 20 %
			p := core.NewASB(capacity, core.ASBOptions{InitialCandFrac: 1})
			if p.CandidateSize() != c || p.MainCapacity() != c {
				b.Fatalf("cand %d, main %d, want %d", p.CandidateSize(), p.MainCapacity(), c)
			}
			rng := rand.New(rand.NewSource(1))
			ctx := buffer.AccessContext{}
			admit := func(f *buffer.Frame, i int) {
				x, y := rng.Float64(), rng.Float64()
				f.Meta = page.Meta{ID: page.ID(i), MBR: geom.NewRect(x, y, x+rng.Float64(), y+rng.Float64())}
				p.OnAdmit(f, uint64(i), ctx)
			}
			for i := 0; i < capacity; i++ {
				admit(&buffer.Frame{Slot: -1}, i)
			}
			spare := &buffer.Frame{Slot: -1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := p.Victim(ctx).Frame
				p.OnEvict(v)
				admit(spare, capacity+i)
				spare = v
			}
		})
	}
}
