package queryset

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

var space = geom.NewRect(0, 0, 1000, 500)

func testObjects(n int) []dataset.Object {
	g := dataset.USMainland(1)
	return g.Objects(2, n)
}

func testPlaces(n int) []dataset.Place {
	g := dataset.USMainland(1)
	return g.Places(3, n)
}

func checkSet(t *testing.T, s Set, wantName string, n int, wantPoints bool) {
	t.Helper()
	if s.Name != wantName {
		t.Errorf("name = %q, want %q", s.Name, wantName)
	}
	if len(s.Queries) != n {
		t.Fatalf("%s: %d queries, want %d", s.Name, len(s.Queries), n)
	}
	for i, q := range s.Queries {
		if q.ID != uint64(i+1) {
			t.Fatalf("%s: query %d has ID %d", s.Name, i, q.ID)
		}
		if q.Rect.IsEmpty() {
			t.Fatalf("%s: query %d empty", s.Name, i)
		}
		if wantPoints && (q.Rect.Width() != 0 || q.Rect.Height() != 0) {
			t.Fatalf("%s: query %d should be a point, got %v", s.Name, i, q.Rect)
		}
	}
}

func TestUniform(t *testing.T) {
	s := Uniform(space, 200, 1)
	checkSet(t, s, "U-P", 200, true)
	for _, q := range s.Queries {
		if !space.Contains(q.Rect) {
			t.Fatalf("query %v outside space", q.Rect)
		}
	}
	// Determinism.
	again := Uniform(space, 200, 1)
	for i := range s.Queries {
		if s.Queries[i] != again.Queries[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestUniformWindows(t *testing.T) {
	for _, ex := range []int{33, 100, 333, 1000} {
		s := UniformWindows(space, 100, ex, 2)
		wantName := map[int]string{33: "U-W-33", 100: "U-W-100", 333: "U-W-333", 1000: "U-W-1000"}[ex]
		checkSet(t, s, wantName, 100, false)
		wantW := space.Width() / float64(ex)
		wantH := space.Height() / float64(ex)
		for _, q := range s.Queries {
			// Windows are clipped to the space, so extents are at most the
			// nominal size and at least half of it (centre inside space).
			if q.Rect.Width() > wantW+1e-9 || q.Rect.Height() > wantH+1e-9 {
				t.Fatalf("window %v exceeds nominal %gx%g", q.Rect, wantW, wantH)
			}
			if q.Rect.Width() < wantW/2-1e-9 && q.Rect.Height() < wantH/2-1e-9 {
				t.Fatalf("window %v implausibly small", q.Rect)
			}
		}
	}
}

func TestIdentical(t *testing.T) {
	objs := testObjects(500)
	s := Identical(objs, 300, 3)
	checkSet(t, s, "ID-P", 300, true)
	// Every query point is the centre of some object.
	centers := make(map[geom.Point]bool, len(objs))
	for _, o := range objs {
		centers[o.MBR.Center()] = true
	}
	for _, q := range s.Queries {
		if !centers[q.Rect.Center()] {
			t.Fatalf("query %v is not an object centre", q.Rect)
		}
	}
}

func TestIdenticalWindows(t *testing.T) {
	objs := testObjects(500)
	s := IdenticalWindows(objs, 300, 4)
	checkSet(t, s, "ID-W", 300, false)
	// Every query is exactly some object's MBR ("the size of the objects
	// is maintained").
	mbrs := make(map[geom.Rect]bool, len(objs))
	for _, o := range objs {
		mbrs[o.MBR] = true
	}
	for _, q := range s.Queries {
		if !mbrs[q.Rect] {
			t.Fatalf("query %v is not an object MBR", q.Rect)
		}
	}
}

func TestSimilar(t *testing.T) {
	places := testPlaces(400)
	s := Similar(places, 250, 5)
	checkSet(t, s, "S-P", 250, true)
	locs := make(map[geom.Point]bool, len(places))
	for _, p := range places {
		locs[p.Loc] = true
	}
	for _, q := range s.Queries {
		if !locs[q.Rect.Center()] {
			t.Fatalf("query %v is not a place", q.Rect)
		}
	}
	sw := SimilarWindows(places, space, 250, 100, 6)
	checkSet(t, sw, "S-W-100", 250, false)
}

func TestIntensifiedWeighting(t *testing.T) {
	// Two places: populations 1,000,000 and 100. With √population
	// weighting the big one must be drawn about √10000 = 100× as often.
	places := []dataset.Place{
		{Loc: geom.Point{X: 1, Y: 1}, Population: 1_000_000},
		{Loc: geom.Point{X: 2, Y: 2}, Population: 100},
	}
	s := Intensified(places, 10_000, 7)
	checkSet(t, s, "INT-P", 10_000, true)
	big := 0
	for _, q := range s.Queries {
		if q.Rect.Center() == places[0].Loc {
			big++
		}
	}
	frac := float64(big) / float64(len(s.Queries))
	want := math.Sqrt(1_000_000) / (math.Sqrt(1_000_000) + math.Sqrt(100))
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("big-place fraction = %.3f, want ≈ %.3f", frac, want)
	}
	sw := IntensifiedWindows(places, space, 100, 33, 8)
	checkSet(t, sw, "INT-W-33", 100, false)
}

func TestIndependentIsFlippedSimilar(t *testing.T) {
	places := testPlaces(400)
	s := Independent(places, space, 300, 9)
	checkSet(t, s, "IND-P", 300, true)
	// Every query is the x-flip of some place.
	locs := make(map[geom.Point]bool, len(places))
	for _, p := range places {
		locs[geom.Point{X: space.MinX + space.MaxX - p.Loc.X, Y: p.Loc.Y}] = true
	}
	for _, q := range s.Queries {
		if !locs[q.Rect.Center()] {
			t.Fatalf("query %v is not a flipped place", q.Rect)
		}
	}
	sw := IndependentWindows(places, space, 300, 333, 10)
	checkSet(t, sw, "IND-W-333", 300, false)
}
