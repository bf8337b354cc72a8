package zbtree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// window is a quick-generatable query rectangle inside the test space.
type window struct {
	CX, CY, W, H float64
}

// Generate implements quick.Generator.
func (window) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(window{
		CX: r.Float64() * 1000,
		CY: r.Float64() * 500,
		W:  math.Abs(r.NormFloat64()) * 120,
		H:  math.Abs(r.NormFloat64()) * 90,
	})
}

// TestQuickDecompositionSound: for an arbitrary window, every sampled
// in-window point has its z-value covered by the decomposition, and the
// ranges are sorted and non-adjacent.
func TestQuickDecompositionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func(w window) bool {
		q := geom.RectFromCenter(geom.Point{X: w.CX, Y: w.CY}, w.W, w.H).Intersection(space)
		if q.IsEmpty() {
			return true
		}
		ranges := decomposeWindow(q, space, 8)
		if len(ranges) == 0 {
			return false
		}
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Lo <= ranges[i-1].Hi+1 {
				return false
			}
		}
		for k := 0; k < 40; k++ {
			p := geom.Point{
				X: q.MinX + rng.Float64()*q.Width(),
				Y: q.MinY + rng.Float64()*q.Height(),
			}
			z := encode(p, space)
			covered := false
			for _, r := range ranges {
				if z >= r.Lo && z <= r.Hi {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodeMonotoneInCells: ordering of z-values respects the
// quadrant hierarchy — points in the low-y half always sort below points
// in the high-y half of the same... (global property: top bit is y's).
func TestQuickEncodeMonotoneInCells(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clampTo := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) {
				return lo
			}
			return math.Min(hi, math.Max(lo, math.Abs(v)))
		}
		a := geom.Point{X: clampTo(ax, 0, 1000), Y: clampTo(ay, 0, 249)}
		b := geom.Point{X: clampTo(bx, 0, 1000), Y: clampTo(by, 251, 500)}
		// a is in the lower-y half, b in the upper-y half: z(a) < z(b).
		return encode(a, space) < encode(b, space)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
