package page

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestTypeString(t *testing.T) {
	tests := []struct {
		typ  Type
		want string
	}{
		{TypeDirectory, "directory"},
		{TypeData, "data"},
		{TypeObject, "object"},
		{Type(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("Type(%d).String() = %q, want %q", tt.typ, got, tt.want)
		}
	}
}

func TestCriterionString(t *testing.T) {
	want := []string{"A", "EA", "M", "EM", "EO"}
	for i, c := range criteria() {
		if c.String() != want[i] {
			t.Errorf("criterion %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if Criterion(99).String() != "unknown" {
		t.Error("unknown criterion should stringify to unknown")
	}
	if Criterion(99).Value(Meta{}) != 0 {
		t.Error("unknown criterion value should be 0")
	}
}

// FuzzParseCriterion: ParseCriterion takes a name from a command line.
// Whatever it accepts names itself — String gives the input back up to
// case — and it accepts the paper's five abbreviations and nothing else.
func FuzzParseCriterion(f *testing.F) {
	for _, s := range []string{"A", "ea", "eM", "EO", "m", "", "E", "AA", " A", "unknown"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCriterion(s)
		if err == nil && !strings.EqualFold(c.String(), s) {
			t.Fatalf("ParseCriterion(%q) = %v", s, c)
		}
		abbreviation := slices.ContainsFunc([]string{"A", "EA", "M", "EM", "EO"}, func(a string) bool { return strings.EqualFold(a, s) })
		if (err == nil) != abbreviation {
			t.Fatalf("ParseCriterion(%q): err = %v", s, err)
		}
	})
}

func TestNewPage(t *testing.T) {
	p := New(7, TypeData, 0, 42)
	if p.ID != 7 || p.Type != TypeData || p.Level != 0 {
		t.Errorf("unexpected meta: %+v", p.Meta)
	}
	if !p.MBR.IsEmpty() {
		t.Error("fresh page should have empty MBR")
	}
	if cap(p.Entries) != 42 || len(p.Entries) != 0 {
		t.Errorf("entries cap/len = %d/%d", cap(p.Entries), len(p.Entries))
	}
}

func TestRecompute(t *testing.T) {
	p := New(1, TypeDirectory, 1, 4)
	p.Append(Entry{MBR: geom.NewRect(0, 0, 2, 2), Child: 2})
	p.Append(Entry{MBR: geom.NewRect(1, 1, 3, 3), Child: 3})
	p.Append(Entry{MBR: geom.NewRect(10, 10, 11, 11), Child: 4})
	p.Recompute()

	if p.NumEntries != 3 {
		t.Errorf("NumEntries = %d", p.NumEntries)
	}
	if want := geom.NewRect(0, 0, 11, 11); p.MBR != want {
		t.Errorf("MBR = %v, want %v", p.MBR, want)
	}
	if want := 4.0 + 4.0 + 1.0; p.EntryAreaSum != want {
		t.Errorf("EntryAreaSum = %g, want %g", p.EntryAreaSum, want)
	}
	if want := 8.0 + 8.0 + 4.0; p.EntryMarginSum != want {
		t.Errorf("EntryMarginSum = %g, want %g", p.EntryMarginSum, want)
	}
	// Entries 0 and 1 overlap in a 1×1 square; others disjoint.
	if p.EntryOverlap != 1.0 {
		t.Errorf("EntryOverlap = %g, want 1", p.EntryOverlap)
	}
}

func TestRecomputeEmpty(t *testing.T) {
	p := New(1, TypeData, 0, 4)
	p.Append(Entry{MBR: geom.NewRect(0, 0, 1, 1), ObjID: 9})
	p.Recompute()
	p.Entries = p.Entries[:0]
	p.Recompute()
	if p.NumEntries != 0 || !p.MBR.IsEmpty() || p.EntryAreaSum != 0 ||
		p.EntryMarginSum != 0 || p.EntryOverlap != 0 {
		t.Errorf("recompute of empty page left residue: %+v", p.Meta)
	}
}

func TestCriterionValues(t *testing.T) {
	m := Meta{
		MBR:            geom.NewRect(0, 0, 4, 2),
		EntryAreaSum:   7,
		EntryMarginSum: 13,
		EntryOverlap:   2.5,
	}
	tests := []struct {
		c    Criterion
		want float64
	}{
		{CritA, 8},
		{CritEA, 7},
		{CritM, 12},
		{CritEM, 13},
		{CritEO, 2.5},
	}
	for _, tt := range tests {
		if got := tt.c.Value(m); got != tt.want {
			t.Errorf("%v.Value = %g, want %g", tt.c, got, tt.want)
		}
	}
}

func TestEOCountsEachPairOnce(t *testing.T) {
	// The paper defines EO as Σ_{e≠f} area(e∩f)/2, i.e. each unordered
	// pair counted once. Two identical unit squares → overlap 1.
	p := New(1, TypeData, 0, 2)
	p.Append(Entry{MBR: geom.NewRect(0, 0, 1, 1)})
	p.Append(Entry{MBR: geom.NewRect(0, 0, 1, 1)})
	p.Recompute()
	if p.EntryOverlap != 1 {
		t.Errorf("EntryOverlap = %g, want 1 (each pair once)", p.EntryOverlap)
	}
}

func TestClone(t *testing.T) {
	p := New(3, TypeData, 0, 2)
	p.Append(Entry{MBR: geom.NewRect(0, 0, 1, 1), ObjID: 42})
	p.Recompute()
	q := p.Clone()
	q.Entries[0].ObjID = 99
	q.Append(Entry{MBR: geom.NewRect(5, 5, 6, 6)})
	if p.Entries[0].ObjID != 42 {
		t.Error("clone mutation leaked into original entries")
	}
	if len(p.Entries) != 1 {
		t.Error("clone append grew original")
	}
	if q.ID != p.ID || q.Type != p.Type {
		t.Error("clone lost meta")
	}
}

// TestLease: a leased page is claimable only while nobody references it,
// cannot be acquired while claimed, and panics when released once too
// often; a page without a lease — a clone of a leased one included —
// counts nothing.
func TestLease(t *testing.T) {
	p := Leased()
	if p.Claim() || p.TryAcquire(2) {
		t.Fatal("a new leased page is its maker's until Unclaim")
	}
	p.Unclaim(1)
	if !p.TryAcquire(2) || p.Claim() {
		t.Fatal("an unclaimed page with references: TryAcquire must succeed, Claim must fail")
	}
	p.Acquire()
	for range 4 {
		p.Release()
	}
	if !p.Claim() {
		t.Fatal("a page whose references were all released must be claimable")
	}
	p.Unclaim(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release of an unreferenced page did not panic")
			}
		}()
		p.Release()
	}()
	q := Leased()
	q.Unclaim(0)
	for _, free := range []*Page{New(1, TypeData, 0, 0), q.Clone()} {
		free.Release() // no-op, no panic
		if free.Claim() || !free.TryAcquire(2) {
			t.Error("a page without a lease is never claimed and always acquired")
		}
	}
}

func TestPropertyRecomputeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		p := New(ID(trial+1), TypeData, 0, n)
		for i := 0; i < n; i++ {
			x := rng.Float64() * 100
			y := rng.Float64() * 100
			p.Append(Entry{MBR: geom.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10)})
		}
		p.Recompute()

		// Page MBR contains every entry MBR.
		for _, e := range p.Entries {
			if !p.MBR.Contains(e.MBR) {
				t.Fatalf("page MBR %v does not contain entry %v", p.MBR, e.MBR)
			}
		}
		// EA ≤ n·area(MBR): every entry fits inside the page MBR.
		if n > 0 && p.EntryAreaSum > float64(n)*p.MBR.Area()+1e-9 {
			t.Fatalf("EntryAreaSum %g exceeds n·MBR area", p.EntryAreaSum)
		}
		// All criteria non-negative.
		for _, c := range criteria() {
			if v := c.Value(p.Meta); v < 0 || math.IsNaN(v) {
				t.Fatalf("criterion %v = %g", c, v)
			}
		}
		// Recompute is idempotent.
		before := p.Meta
		p.Recompute()
		if p.Meta != before {
			t.Fatalf("Recompute not idempotent: %+v vs %+v", before, p.Meta)
		}
	}
}
