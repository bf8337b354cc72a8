// Package queryset generates the query distributions of the paper's
// evaluation (§3.1): uniform, identical, similar, intensified and
// independent, each as point queries and as window queries of several
// sizes.
//
// Every query is an axis-aligned rectangle; point queries are degenerate
// rectangles. The paper's naming scheme is kept: U-P, U-W-ex, ID-P, ID-W,
// S-P, S-W-ex, INT-P, INT-W-ex, IND-P, IND-W-ex, where ex is the
// reciprocal window extension (x-extension of a window = x-extension of
// the data space divided by ex).
package queryset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// Query is one spatial query: a region to be intersected with the
// database. ID is unique within a Set and defines reference correlation
// (two page accesses are correlated iff they share a query).
type Query struct {
	ID   uint64
	Rect geom.Rect
}

// Set is a named sequence of queries.
type Set struct {
	Name    string
	Queries []Query
}

// window returns a query window of the set's extension centred at p,
// clipped to the data space.
func window(space geom.Rect, p geom.Point, ex int) geom.Rect {
	w := space.Width() / float64(ex)
	h := space.Height() / float64(ex)
	r := geom.RectFromCenter(p, w, h).Intersection(space)
	if r.IsEmpty() {
		r = geom.RectFromPoint(p)
	}
	return r
}

// numbered assigns query IDs 1..n in order.
func numbered(name string, rects []geom.Rect) Set {
	s := Set{Name: name, Queries: make([]Query, len(rects))}
	for i, r := range rects {
		s.Queries[i] = Query{ID: uint64(i + 1), Rect: r}
	}
	return s
}

// uniformPoints draws n uniform points over the whole space (queries also
// cover the parts of the space where no objects are stored, as in the
// paper).
func uniformPoints(space geom.Rect, n int, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: space.MinX + rng.Float64()*space.Width(),
			Y: space.MinY + rng.Float64()*space.Height(),
		}
	}
	return pts
}

// Uniform returns the point-query set U-P.
func Uniform(space geom.Rect, n int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i, p := range uniformPoints(space, n, rng) {
		rects[i] = geom.RectFromPoint(p)
	}
	return numbered("U-P", rects)
}

// UniformWindows returns the window-query set U-W-ex.
func UniformWindows(space geom.Rect, n, ex int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i, p := range uniformPoints(space, n, rng) {
		rects[i] = window(space, p, ex)
	}
	return numbered(fmt.Sprintf("U-W-%d", ex), rects)
}

// Identical returns ID-P: point queries at the centres of randomly
// selected database objects.
func Identical(objs []dataset.Object, n int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.RectFromPoint(objs[rng.Intn(len(objs))].MBR.Center())
	}
	return numbered("ID-P", rects)
}

// IdenticalWindows returns ID-W: window queries that are the MBRs of
// randomly selected database objects ("the size of the objects is
// maintained").
func IdenticalWindows(objs []dataset.Object, n int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = objs[rng.Intn(len(objs))].MBR
	}
	return numbered("ID-W", rects)
}

// Similar returns S-P: point queries at uniformly selected places.
func Similar(places []dataset.Place, n int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.RectFromPoint(places[rng.Intn(len(places))].Loc)
	}
	return numbered("S-P", rects)
}

// SimilarWindows returns S-W-ex: window queries centred at uniformly
// selected places.
func SimilarWindows(places []dataset.Place, space geom.Rect, n, ex int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = window(space, places[rng.Intn(len(places))].Loc, ex)
	}
	return numbered(fmt.Sprintf("S-W-%d", ex), rects)
}

// popSampler prepares √population-weighted sampling over places (the
// intensified distribution: "the probability of selecting a city ... is
// correlated to the square root of the population").
type popSampler struct {
	places []dataset.Place
	cum    []float64
}

func newPopSampler(places []dataset.Place) *popSampler {
	s := &popSampler{places: places, cum: make([]float64, len(places))}
	total := 0.0
	for i, p := range places {
		total += math.Sqrt(float64(p.Population))
		s.cum[i] = total
	}
	return s
}

// sample draws one place index.
func (s *popSampler) sample(rng *rand.Rand) int {
	x := rng.Float64() * s.cum[len(s.cum)-1]
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Intensified returns INT-P: point queries at places sampled with
// probability proportional to √population.
func Intensified(places []dataset.Place, n int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	sampler := newPopSampler(places)
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.RectFromPoint(places[sampler.sample(rng)].Loc)
	}
	return numbered("INT-P", rects)
}

// IntensifiedWindows returns INT-W-ex.
func IntensifiedWindows(places []dataset.Place, space geom.Rect, n, ex int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	sampler := newPopSampler(places)
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = window(space, places[sampler.sample(rng)].Loc, ex)
	}
	return numbered(fmt.Sprintf("INT-W-%d", ex), rects)
}

// Independent returns IND-P: the similar distribution after flipping the
// x-coordinates, making query and object distributions independent (an
// object in the west queries the east and vice versa).
func Independent(places []dataset.Place, space geom.Rect, n int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		p := places[rng.Intn(len(places))].Loc
		rects[i] = geom.RectFromPoint(p).FlipX(space)
	}
	s := numbered("IND-P", rects)
	return s
}

// IndependentWindows returns IND-W-ex.
func IndependentWindows(places []dataset.Place, space geom.Rect, n, ex int, seed int64) Set {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		p := places[rng.Intn(len(places))].Loc
		rects[i] = window(space, p, ex).FlipX(space)
	}
	return numbered(fmt.Sprintf("IND-W-%d", ex), rects)
}
