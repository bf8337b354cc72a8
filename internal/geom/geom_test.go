package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %g, want 0", e.Area())
	}
	if e.Margin() != 0 {
		t.Errorf("empty margin = %g, want 0", e.Margin())
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Errorf("empty extents = %g×%g, want 0×0", e.Width(), e.Height())
	}
	if e.Valid() {
		t.Error("empty rect should not be valid")
	}
	if e.String() != "Rect(empty)" {
		t.Errorf("String() = %q", e.String())
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
}

func TestRectFromPoint(t *testing.T) {
	p := Point{X: 3, Y: -4}
	r := RectFromPoint(p)
	if r.Area() != 0 {
		t.Errorf("point rect area = %g, want 0", r.Area())
	}
	if !r.ContainsPoint(p) {
		t.Error("point rect should contain its point")
	}
	if r.IsEmpty() {
		t.Error("point rect should not be empty")
	}
}

func TestRectFromCenter(t *testing.T) {
	r := RectFromCenter(Point{X: 10, Y: 20}, 4, 6)
	want := Rect{MinX: 8, MinY: 17, MaxX: 12, MaxY: 23}
	if r != want {
		t.Errorf("RectFromCenter = %v, want %v", r, want)
	}
	if got := r.Center(); got != (Point{X: 10, Y: 20}) {
		t.Errorf("Center = %v", got)
	}
	// Negative extents clamp to a point.
	p := RectFromCenter(Point{X: 1, Y: 1}, -5, -5)
	if p.Area() != 0 || p.IsEmpty() {
		t.Errorf("negative-extent rect = %v", p)
	}
}

func TestAreaMargin(t *testing.T) {
	tests := []struct {
		name         string
		r            Rect
		area, margin float64
	}{
		{"unit", NewRect(0, 0, 1, 1), 1, 4},
		{"wide", NewRect(0, 0, 10, 2), 20, 24},
		{"point", RectFromPoint(Point{X: 5, Y: 5}), 0, 0},
		{"segment", NewRect(0, 0, 3, 0), 0, 6},
		{"negative coords", NewRect(-2, -3, 2, 3), 24, 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Area(); got != tt.area {
				t.Errorf("Area = %g, want %g", got, tt.area)
			}
			if got := tt.r.Margin(); got != tt.margin {
				t.Errorf("Margin = %g, want %g", got, tt.margin)
			}
		})
	}
}

func TestUnion(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(2, 2, 3, 3)
	u := a.Union(b)
	want := NewRect(0, 0, 3, 3)
	if u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
	if got := EmptyRect().Union(b); got != b {
		t.Errorf("empty Union b = %v, want %v", got, b)
	}
	if got := a.UnionPoint(Point{X: -1, Y: 5}); got != NewRect(-1, 0, 1, 5) {
		t.Errorf("UnionPoint = %v", got)
	}
}

func TestIntersection(t *testing.T) {
	tests := []struct {
		name       string
		a, b       Rect
		intersects bool
		area       float64
	}{
		{"overlap", NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3), true, 1},
		{"disjoint", NewRect(0, 0, 1, 1), NewRect(2, 2, 3, 3), false, 0},
		{"touching edge", NewRect(0, 0, 1, 1), NewRect(1, 0, 2, 1), true, 0},
		{"touching corner", NewRect(0, 0, 1, 1), NewRect(1, 1, 2, 2), true, 0},
		{"contained", NewRect(0, 0, 10, 10), NewRect(2, 2, 4, 4), true, 4},
		{"identical", NewRect(0, 0, 2, 3), NewRect(0, 0, 2, 3), true, 6},
		{"empty operand", NewRect(0, 0, 1, 1), EmptyRect(), false, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Intersects(tt.b); got != tt.intersects {
				t.Errorf("Intersects = %v, want %v", got, tt.intersects)
			}
			if got := tt.b.Intersects(tt.a); got != tt.intersects {
				t.Errorf("Intersects not symmetric")
			}
			if got := tt.a.OverlapArea(tt.b); got != tt.area {
				t.Errorf("OverlapArea = %g, want %g", got, tt.area)
			}
			inter := tt.a.Intersection(tt.b)
			if tt.intersects && inter.IsEmpty() {
				t.Error("Intersection empty despite Intersects")
			}
			if !tt.intersects && !inter.IsEmpty() {
				t.Errorf("Intersection = %v despite disjoint", inter)
			}
		})
	}
}

func TestContains(t *testing.T) {
	outer := NewRect(0, 0, 10, 10)
	if !outer.Contains(NewRect(1, 1, 9, 9)) {
		t.Error("should contain inner rect")
	}
	if !outer.Contains(outer) {
		t.Error("should contain itself")
	}
	if outer.Contains(NewRect(5, 5, 11, 9)) {
		t.Error("should not contain overflowing rect")
	}
	if !outer.Contains(EmptyRect()) {
		t.Error("non-empty should contain empty")
	}
	if EmptyRect().Contains(outer) {
		t.Error("empty contains nothing")
	}
	if !outer.ContainsPoint(Point{X: 0, Y: 10}) {
		t.Error("boundary point should be contained")
	}
	if outer.ContainsPoint(Point{X: -0.1, Y: 5}) {
		t.Error("outside point should not be contained")
	}
	if EmptyRect().ContainsPoint(Point{}) {
		t.Error("empty rect contains no point")
	}
}

func TestEnlargement(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	if got := r.Enlargement(NewRect(1, 1, 2, 2)); got != 0 {
		t.Errorf("Enlargement of contained = %g, want 0", got)
	}
	// Union with (0,0)-(4,2) has area 8, r has area 4.
	if got := r.Enlargement(NewRect(2, 0, 4, 2)); got != 4 {
		t.Errorf("Enlargement = %g, want 4", got)
	}
}

func TestFlipX(t *testing.T) {
	space := NewRect(0, 0, 100, 50)
	r := NewRect(10, 5, 20, 15)
	f := r.FlipX(space)
	want := NewRect(80, 5, 90, 15)
	if f != want {
		t.Errorf("FlipX = %v, want %v", f, want)
	}
	// Double flip is the identity.
	if got := f.FlipX(space); got != r {
		t.Errorf("double FlipX = %v, want %v", got, r)
	}
	// Width and area preserved.
	if f.Area() != r.Area() || f.Width() != r.Width() {
		t.Error("FlipX should preserve area and width")
	}
	if !EmptyRect().FlipX(space).IsEmpty() {
		t.Error("FlipX of empty should stay empty")
	}
}

func TestEqual(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	if !a.Equal(a) {
		t.Error("rect should equal itself")
	}
	if a.Equal(NewRect(0, 0, 1, 2)) {
		t.Error("different rects should not be equal")
	}
	e1 := EmptyRect()
	e2 := Rect{MinX: 5, MinY: 5, MaxX: 0, MaxY: 0}
	if !e1.Equal(e2) {
		t.Error("all empty rects should be equal")
	}
	if a.Equal(e1) || e1.Equal(a) {
		t.Error("empty and non-empty should differ")
	}
}

func TestValid(t *testing.T) {
	if !NewRect(0, 0, 1, 1).Valid() {
		t.Error("normal rect should be valid")
	}
	if (Rect{MinX: math.NaN()}).Valid() {
		t.Error("NaN rect should be invalid")
	}
	if EmptyRect().Valid() {
		t.Error("empty (infinite) rect should be invalid")
	}
}

// randRect generates a random non-empty rectangle inside [-100,100]².
func randRect(rng *rand.Rand) Rect {
	x1 := rng.Float64()*200 - 100
	y1 := rng.Float64()*200 - 100
	return NewRect(x1, y1, x1+rng.Float64()*50, y1+rng.Float64()*50)
}

func TestPropertyUnionCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b, c := randRect(rng), randRect(rng), randRect(rng)
		if a.Union(b) != b.Union(a) {
			t.Fatalf("union not commutative: %v %v", a, b)
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			t.Fatalf("union not associative: %v %v %v", a, b, c)
		}
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			t.Fatalf("union does not contain operands: %v %v", a, b)
		}
		if u.Area() < a.Area() || u.Area() < b.Area() {
			t.Fatalf("union area shrank")
		}
	}
}

func TestPropertyIntersectionContained(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		inter := a.Intersection(b)
		if inter.IsEmpty() {
			if a.Intersects(b) {
				t.Fatalf("Intersects true but Intersection empty: %v %v", a, b)
			}
			continue
		}
		if !a.Contains(inter) || !b.Contains(inter) {
			t.Fatalf("intersection not contained in operands")
		}
		if inter.Area() > a.Area()+1e-9 || inter.Area() > b.Area()+1e-9 {
			t.Fatalf("intersection area exceeds operand")
		}
		if got := a.OverlapArea(b); got != inter.Area() {
			t.Fatalf("OverlapArea mismatch: %g vs %g", got, inter.Area())
		}
	}
}

func TestPropertyEnlargementNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		if a.Enlargement(b) < 0 {
			t.Fatalf("negative enlargement for %v %v", a, b)
		}
	}
}

func TestQuickFlipXInvolution(t *testing.T) {
	space := NewRect(-1000, -1000, 1000, 1000)
	f := func(x1, y1, w, h float64) bool {
		w = math.Mod(math.Abs(w), 100)
		h = math.Mod(math.Abs(h), 100)
		x1 = math.Mod(x1, 500)
		y1 = math.Mod(y1, 500)
		if math.IsNaN(x1 + y1 + w + h) {
			return true
		}
		r := NewRect(x1, y1, x1+w, y1+h)
		ff := r.FlipX(space).FlipX(space)
		const eps = 1e-9
		return math.Abs(ff.MinX-r.MinX) < eps && math.Abs(ff.MaxX-r.MaxX) < eps &&
			ff.MinY == r.MinY && ff.MaxY == r.MaxY
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMinMaxBuiltinsBitIdentical pins NewRect, Union, Intersection and
// OverlapArea, which use the min/max builtins, to the math.Min/math.Max
// formulation they replaced: the same bits (sign of zero, NaN) for every
// rectangle over the special values. The one place the two differ is kept
// out of the table: math.Min(-Inf, NaN) is -Inf and math.Max(+Inf, NaN) is
// +Inf, where the builtins return NaN — so infinities and NaN are
// tabulated separately. No stored rectangle has a NaN (Valid rejects it).
func TestMinMaxBuiltinsBitIdentical(t *testing.T) {
	finite := []float64{-2, math.Copysign(0, -1), 0, 5e-324, 1}
	var rects []Rect
	for _, special := range [][]float64{{math.Inf(-1), math.Inf(1)}, {math.NaN()}} {
		vals := append(special, finite...)
		for _, a := range vals {
			for _, b := range vals {
				rects = append(rects, Rect{MinX: a, MinY: b, MaxX: b, MaxY: a}, Rect{MinX: a, MinY: a, MaxX: b, MaxY: b})
			}
		}
	}
	hasNaN := func(r Rect) bool { return r != r }
	hasInf := func(r Rect) bool {
		return math.IsInf(r.MinX, 0) || math.IsInf(r.MinY, 0) || math.IsInf(r.MaxX, 0) || math.IsInf(r.MaxY, 0)
	}
	// Every NaN counts as the same value: math.Min returns the canonical
	// one, the builtin whichever its operand carried.
	bit := func(v float64) uint64 {
		if v != v {
			v = math.NaN()
		}
		return math.Float64bits(v)
	}
	bits := func(r Rect) [4]uint64 { return [4]uint64{bit(r.MinX), bit(r.MinY), bit(r.MaxX), bit(r.MaxY)} }
	for _, r := range rects {
		want := Rect{
			MinX: math.Min(r.MinX, r.MaxX), MinY: math.Min(r.MinY, r.MaxY),
			MaxX: math.Max(r.MinX, r.MaxX), MaxY: math.Max(r.MinY, r.MaxY),
		}
		if got := NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY); bits(got) != bits(want) {
			t.Fatalf("NewRect(%v) = %v, math.Min/Max give %v", r, got, want)
		}
		for _, s := range rects {
			if hasNaN(r) && hasInf(s) || hasInf(r) && hasNaN(s) {
				continue
			}
			want := Rect{
				MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
				MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
			}
			if r.IsEmpty() {
				want = s
			} else if s.IsEmpty() {
				want = r
			}
			if got := r.Union(s); bits(got) != bits(want) {
				t.Fatalf("%#v.Union(%#v) = %#v, math.Min/Max give %#v", r, s, got, want)
			}
			want = EmptyRect()
			if r.Intersects(s) {
				want = Rect{
					MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
					MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
				}
			}
			if got := r.Intersection(s); bits(got) != bits(want) {
				t.Fatalf("%#v.Intersection(%#v) = %#v, math.Min/Max give %#v", r, s, got, want)
			}
			if got, want := r.OverlapArea(s), want.Area(); bit(got) != bit(want) {
				t.Fatalf("%#v.OverlapArea(%#v) = %g, Intersection().Area() = %g", r, s, got, want)
			}
		}
	}
}

// textbookIntersects is Intersects as it was before the comparisons were
// counted (DESIGN.md §5a.5): the oracle of
// TestIntersectsContainsMatchDefinition, kept verbatim.
func (r Rect) textbookIntersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// textbookContains is Contains as it was, kept verbatim beside
// textbookIntersects.
func (r Rect) textbookContains(s Rect) bool {
	if r.IsEmpty() {
		return false
	}
	if s.IsEmpty() {
		return true
	}
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// TestIntersectsContainsMatchDefinition: for every pair of rectangles
// whose eight coordinates come from {−Inf, −1, 0, 1, +Inf, NaN} (6⁸
// pairs: empty, inverted, degenerate, unbounded and NaN rectangles on
// either side), Intersects and Contains give the answers of their
// textbook definitions, and Intersects is meets of two non-empty
// rectangles.
func TestIntersectsContainsMatchDefinition(t *testing.T) {
	vals := []float64{math.Inf(-1), -1, 0, 1, math.Inf(1), math.NaN()}
	var rects []Rect
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, d := range vals {
					rects = append(rects, Rect{MinX: a, MinY: b, MaxX: c, MaxY: d})
				}
			}
		}
	}
	for _, r := range rects {
		for _, s := range rects {
			if got, want := r.Intersects(s), r.textbookIntersects(s); got != want {
				t.Fatalf("%#v.Intersects(%#v) = %v, textbook %v", r, s, got, want)
			}
			if got, want := r.Contains(s), r.textbookContains(s); got != want {
				t.Fatalf("%#v.Contains(%#v) = %v, textbook %v", r, s, got, want)
			}
			if got, want := r.meets(s) && !r.IsEmpty() && !s.IsEmpty(), r.textbookIntersects(s); got != want {
				t.Fatalf("%#v.meets(%#v) of non-empty rectangles = %v, textbook Intersects %v", r, s, got, want)
			}
		}
	}
}
