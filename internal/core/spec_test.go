package core_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
)

// TestFactoryByNameRegistry covers the memoized fixed-name lookups.
func TestFactoryByNameRegistry(t *testing.T) {
	for _, f := range core.StandardFactories() {
		got, err := core.FactoryByName(f.Name)
		if err != nil {
			t.Fatalf("FactoryByName(%q): %v", f.Name, err)
		}
		if got.Name != f.Name {
			t.Fatalf("FactoryByName(%q) returned %q", f.Name, got.Name)
		}
		if got.New(64).Name() != f.New(64).Name() {
			t.Fatalf("factory %q built policy %q, want %q", f.Name, got.New(64).Name(), f.New(64).Name())
		}
	}
	// FIFO is resolvable by name without being part of the paper's set.
	if f, err := core.FactoryByName("FIFO"); err != nil || f.New(8).Name() != "FIFO" {
		t.Fatalf("FactoryByName(FIFO) = %v, %v", f, err)
	}
	if _, err := core.FactoryByName("nonsense"); err == nil {
		t.Fatal("FactoryByName(nonsense) should fail")
	}
	if _, err := core.Resolver("LRU"); err != nil {
		t.Fatalf("Resolver(LRU): %v", err)
	}
}

// TestParseSpec covers the parameterized spec grammar end to end: each
// valid spec builds a policy whose observable parameters match, and each
// malformed spec is rejected.
func TestParseSpec(t *testing.T) {
	t.Run("LRU-K", func(t *testing.T) {
		f, err := core.FactoryByName("LRU-K:4")
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != "LRU-K:4" {
			t.Fatalf("spec name = %q", f.Name)
		}
		if name := f.New(64).Name(); name != "LRU-4" {
			t.Fatalf("built policy is %s, want LRU-4", name)
		}
	})
	t.Run("SLRU fraction", func(t *testing.T) {
		f, err := core.FactoryByName("SLRU:EA:0.25")
		if err != nil {
			t.Fatal(err)
		}
		p := f.New(64).(*core.SLRU)
		if p.CandidateSize() != 16 {
			t.Fatalf("candidate size = %d, want 16 (0.25 of 64)", p.CandidateSize())
		}
	})
	t.Run("SLRU absolute", func(t *testing.T) {
		f, err := core.FactoryByName("SLRU:A:12")
		if err != nil {
			t.Fatal(err)
		}
		if cs := f.New(64).(*core.SLRU).CandidateSize(); cs != 12 {
			t.Fatalf("candidate size = %d, want 12", cs)
		}
	})
	t.Run("SPATIAL", func(t *testing.T) {
		f, err := core.FactoryByName("SPATIAL:em")
		if err != nil {
			t.Fatal(err)
		}
		if c := f.New(8).(*core.Spatial).Criterion(); c != page.CritEM {
			t.Fatalf("criterion = %v, want EM", c)
		}
	})
	t.Run("ASB", func(t *testing.T) {
		f, err := core.FactoryByName("ASB:M:0.5")
		if err != nil {
			t.Fatal(err)
		}
		p := f.New(64).(*core.ASB)
		if p.OverflowCapacity() != 32 {
			t.Fatalf("overflow capacity = %d, want 32 (0.5 of 64)", p.OverflowCapacity())
		}
	})
	t.Run("PIN", func(t *testing.T) {
		f, err := core.FactoryByName("PIN:2")
		if err != nil {
			t.Fatal(err)
		}
		if lvl := f.New(8).(*core.PinLevels).MinLevel; lvl != 2 {
			t.Fatalf("MinLevel = %d, want 2", lvl)
		}
	})
	for _, bad := range []string{
		"LRU-K:0", "LRU-K:x", "LRU-K:", "LRU-K:2:3", "LRU-K:65", "LRU-K:2000000000",
		"SLRU:A", "SLRU:Q:0.5", "SLRU:A:0", "SLRU:A:-1",
		"SLRU:A:NaN", "SLRU:A:Inf", "SLRU:A:1e30", "SLRU:A:2147483648",
		"SPATIAL:", "SPATIAL:XX",
		"ASB:", "ASB:A:1.5", "ASB:A:0.2:0.25:0.01:9", "ASB:A:NaN", "ASB:A:0.2:Inf",
		"PIN:-1", "PIN:x",
		"WOMBAT:3",
	} {
		if _, err := core.FactoryByName(bad); err == nil {
			t.Errorf("FactoryByName(%q) should fail", bad)
		}
	}
}

// FuzzParseSpec: a spec comes from a command line, so ParseSpec never
// panics, and a factory it hands out is usable as it stands — it carries
// the spec as its name and builds a policy at the capacities the commands
// and the shadow bank's ladder use (a shard's two frames, the benchmark's
// 37 and 1 002).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"LRU-K:4", "SLRU:EA:0.25", "SLRU:A:12", "SLRU:A:2147483647", "SPATIAL:em", "ASB:A:0.2:0.25:0.01", "PIN:2",
		"SLRU:A:NaN", "SLRU:A:Inf", "SLRU:A:1e30", "ASB:A:NaN",
		"", ":", "ASB", "asb:a:1e-300", "SLRU:A:0x1p-2", "LRU-K:-0", "LRU-K:64", "LRU-K:2000000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fac, err := core.ParseSpec(spec)
		if err != nil {
			return
		}
		if fac.Name != spec {
			t.Fatalf("ParseSpec(%q) named its factory %q", spec, fac.Name)
		}
		for _, c := range []int{2, 37, 1002} {
			if fac.New(c) == nil {
				t.Fatalf("ParseSpec(%q).New(%d) built nothing", spec, c)
			}
		}
	})
}

// TestSpecEquivalence checks a parameterized spec builds the same policy
// the fixed registry name does: "LRU-K:2" must replay exactly like
// "LRU-2", and "SLRU:A:0.25" like "SLRU 25%".
func TestSpecEquivalence(t *testing.T) {
	for _, tc := range []struct{ spec, std string }{
		{"LRU-K:2", "LRU-2"},
		{"SLRU:A:0.25", "SLRU 25%"},
		{"SPATIAL:A", "A"},
		{"ASB:A:0.2:0.25:0.01", "ASB"},
		{"PIN:1", "PIN"},
	} {
		const capacity = 8
		specF, err := core.FactoryByName(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		stdF, err := core.FactoryByName(tc.std)
		if err != nil {
			t.Fatal(err)
		}
		seq, specs := benchAccesses(48, 2000)
		store1 := buildStore(t, specs)
		store2 := buildStore(t, specs)
		m1 := mustEngine(t, store1, specF.New(capacity), capacity)
		m2 := mustEngine(t, store2, stdF.New(capacity), capacity)
		miss1 := runOn(t, m1, seq)
		miss2 := runOn(t, m2, seq)
		if !idsEqual(miss1, miss2) {
			t.Errorf("%q and %q diverged: %d vs %d misses", tc.spec, tc.std, len(miss1), len(miss2))
		}
	}
}

// TestParseCriterion covers the page-level criterion parser the spec
// grammar builds on.
func TestParseCriterion(t *testing.T) {
	for _, c := range page.Criteria() {
		got, err := page.ParseCriterion(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCriterion(%q) = %v, %v", c.String(), got, err)
		}
		got, err = page.ParseCriterion(string([]byte{c.String()[0] | 0x20}) + c.String()[1:])
		if err != nil || got != c {
			t.Errorf("ParseCriterion lowercase %q failed: %v, %v", c.String(), got, err)
		}
	}
	if _, err := page.ParseCriterion("ZZ"); err == nil {
		t.Error("ParseCriterion(ZZ) should fail")
	}
}

var _ buffer.Policy = (*core.LRUK)(nil) // spec casts rely on concrete types staying exported
