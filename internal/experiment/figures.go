package experiment

import (
	"fmt"
	"slices"
	"sort"
)

// Query-set groups used by the paper's figures.
var (
	// UniformSets are U-P and the window sets from small to large windows.
	UniformSets = []string{"U-P", "U-W-1000", "U-W-333", "U-W-100", "U-W-33"}
	// IdenticalSimilarSets cover §3.5.2.
	IdenticalSimilarSets = []string{"ID-P", "ID-W", "S-P", "S-W-1000", "S-W-333", "S-W-100", "S-W-33"}
	// IndependentSets cover the flipped distribution of §3.5.3.
	IndependentSets = []string{"IND-P", "IND-W-1000", "IND-W-333", "IND-W-100", "IND-W-33"}
	// IntensifiedSets cover the √population-weighted distribution.
	IntensifiedSets = []string{"INT-P", "INT-W-1000", "INT-W-333", "INT-W-100", "INT-W-33"}
	// RepresentativeSets is the cross-family selection used where the
	// paper plots one bar group per distribution family.
	RepresentativeSets = []string{
		"U-P", "U-W-333", "U-W-33",
		"ID-P", "ID-W",
		"S-P", "S-W-33",
		"INT-P", "INT-W-33",
		"IND-P", "IND-W-33",
	}
)

// fracLabel formats a buffer fraction as in the paper ("0.3%").
func fracLabel(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// FigureFunc computes the tables reproducing one figure of the paper.
type FigureFunc func(opts Options, seed int64) ([]*Table, error)

// Figures maps figure identifiers ("4".."9", "12".."14", "lrut") to their
// reproduction functions.
func Figures() map[string]FigureFunc {
	return map[string]FigureFunc{
		"4":    Fig4,
		"5":    Fig5,
		"6":    Fig6,
		"7":    Fig7,
		"8":    Fig8,
		"9":    Fig9,
		"12":   Fig12,
		"13":   Fig13,
		"14":   Fig14,
		"lrut": FigLRUT,
		// Extensions beyond the paper:
		"crosssam": FigCrossSAM,
		"updates":  FigUpdates,
	}
}

// FigureIDs returns the figure identifiers in display order.
func FigureIDs() []string {
	ids := make([]string, 0)
	for id := range Figures() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric first, then names.
		a, b := ids[i], ids[j]
		an, aerr := atoiSafe(a)
		bn, berr := atoiSafe(b)
		switch {
		case aerr == nil && berr == nil:
			return an < bn
		case aerr == nil:
			return true
		case berr == nil:
			return false
		default:
			return a < b
		}
	})
	return ids
}

func atoiSafe(s string) (int, error) {
	var v int
	_, err := fmt.Sscanf(s, "%d", &v)
	return v, err
}

// GainTable runs a sweep and renders one gain-vs-LRU table per
// (db, frac) with rows = sets and cols = policies; LRU is swept as the
// baseline whether or not it is one of the columns. The figures and
// spatialbench's ad-hoc sweeps are built from it.
func GainTable(db *Database, id, title string, sets, policies []string, frac float64, seed int64) (*Table, error) {
	swept := policies
	if !slices.Contains(policies, "LRU") {
		swept = append([]string{"LRU"}, policies...)
	}
	factories, err := factoriesByName(swept...)
	if err != nil {
		return nil, err
	}
	sw, err := Run(db, sets, factories, []float64{frac}, seed)
	if err != nil {
		return nil, err
	}
	t := NewTable(id, title, "gain vs LRU [%]", sets, policies)
	for _, set := range sets {
		for _, pol := range policies {
			g, err := sw.Gain(set, pol, frac)
			if err != nil {
				return nil, err
			}
			if err := t.Set(set, pol, g*100); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Fig4 reproduces Figure 4: the gain of LRU-P over LRU for the uniform
// and intensified query sets on both databases, across all buffer sizes.
func Fig4(opts Options, seed int64) ([]*Table, error) {
	var tables []*Table
	groups := []struct {
		label string
		sets  []string
	}{
		{"uniform", UniformSets},
		{"intensified", IntensifiedSets},
	}
	factories, err := factoriesByName("LRU", "LRU-P")
	if err != nil {
		return nil, err
	}
	for _, dbn := range []int{1, 2} {
		db, err := Get(dbn, opts)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			sw, err := Run(db, g.sets, factories, BufferFracs, seed)
			if err != nil {
				return nil, err
			}
			cols := make([]string, len(BufferFracs))
			for i, f := range BufferFracs {
				cols[i] = fracLabel(f)
			}
			t := NewTable(
				fmt.Sprintf("fig4-db%d-%s", dbn, g.label),
				fmt.Sprintf("LRU-P vs LRU, %s distribution, %s", g.label, db.Name),
				"gain vs LRU [%]", g.sets, cols)
			for _, set := range g.sets {
				for i, f := range BufferFracs {
					gain, err := sw.Gain(set, "LRU-P", f)
					if err != nil {
						return nil, err
					}
					if err := t.Set(set, cols[i], gain*100); err != nil {
						return nil, err
					}
				}
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// Fig5 reproduces Figure 5: LRU-K (K = 2, 3, 5) against LRU on the
// primary database across all distribution families.
func Fig5(opts Options, seed int64) ([]*Table, error) {
	db, err := Get(1, opts)
	if err != nil {
		return nil, err
	}
	policies := []string{"LRU-2", "LRU-3", "LRU-5"}
	var tables []*Table
	for _, frac := range []float64{0.006, 0.047} {
		t, err := GainTable(db,
			fmt.Sprintf("fig5-%s", fracLabel(frac)),
			fmt.Sprintf("LRU-K vs LRU, DB1, buffer %s", fracLabel(frac)),
			RepresentativeSets, policies, frac, seed)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig6 reproduces Figure 6: the five spatial strategies relative to A
// (accesses of A = 100%) on the primary database.
func Fig6(opts Options, seed int64) ([]*Table, error) {
	db, err := Get(1, opts)
	if err != nil {
		return nil, err
	}
	policies := []string{"A", "EA", "M", "EM", "EO"}
	factories, err := factoriesByName(policies...)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, frac := range []float64{0.003, 0.047} {
		sw, err := Run(db, RepresentativeSets, factories, []float64{frac}, seed)
		if err != nil {
			return nil, err
		}
		t := NewTable(
			fmt.Sprintf("fig6-%s", fracLabel(frac)),
			fmt.Sprintf("spatial strategies relative to A, DB1, buffer %s", fracLabel(frac)),
			"% of A accesses", RepresentativeSets, policies)
		for _, set := range RepresentativeSets {
			for _, pol := range policies {
				rel, err := sw.Relative(set, pol, "A", frac)
				if err != nil {
					return nil, err
				}
				if err := t.Set(set, pol, rel); err != nil {
					return nil, err
				}
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// comparisonFigure renders the §3.5 comparison (LRU-P, A, LRU-2 vs LRU)
// for one group of query sets on both databases at 0.6% and 4.7%.
func comparisonFigure(figID string, sets []string, opts Options, seed int64) ([]*Table, error) {
	policies := []string{"LRU-P", "A", "LRU-2"}
	var tables []*Table
	for _, dbn := range []int{1, 2} {
		db, err := Get(dbn, opts)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0.006, 0.047} {
			t, err := GainTable(db,
				fmt.Sprintf("%s-db%d-%s", figID, dbn, fracLabel(frac)),
				fmt.Sprintf("LRU-P / A / LRU-2 vs LRU, %s, buffer %s", db.Name, fracLabel(frac)),
				sets, policies, frac, seed)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// Fig7 reproduces Figure 7: the uniform distribution comparison.
func Fig7(opts Options, seed int64) ([]*Table, error) {
	return comparisonFigure("fig7", UniformSets, opts, seed)
}

// Fig8 reproduces Figure 8: identical and similar distributions.
func Fig8(opts Options, seed int64) ([]*Table, error) {
	return comparisonFigure("fig8", IdenticalSimilarSets, opts, seed)
}

// Fig9 reproduces Figure 9: independent and intensified distributions.
func Fig9(opts Options, seed int64) ([]*Table, error) {
	return comparisonFigure("fig9", append(append([]string{}, IndependentSets...), IntensifiedSets...), opts, seed)
}

// Fig12 reproduces Figure 12: SLRU with static candidate sets of 50% and
// 25% against the pure spatial strategy A.
func Fig12(opts Options, seed int64) ([]*Table, error) {
	db, err := Get(1, opts)
	if err != nil {
		return nil, err
	}
	policies := []string{"A", "SLRU 50%", "SLRU 25%"}
	var tables []*Table
	for _, frac := range []float64{0.006, 0.047} {
		t, err := GainTable(db,
			fmt.Sprintf("fig12-%s", fracLabel(frac)),
			fmt.Sprintf("static candidate sets, DB1, buffer %s", fracLabel(frac)),
			RepresentativeSets, policies, frac, seed)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig13 reproduces Figure 13 — the headline comparison: A, SLRU 25%, ASB
// and LRU-2 against LRU on both databases.
func Fig13(opts Options, seed int64) ([]*Table, error) {
	policies := []string{"A", "SLRU 25%", "ASB", "LRU-2"}
	var tables []*Table
	for _, dbn := range []int{1, 2} {
		db, err := Get(dbn, opts)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0.006, 0.047} {
			t, err := GainTable(db,
				fmt.Sprintf("fig13-db%d-%s", dbn, fracLabel(frac)),
				fmt.Sprintf("A / SLRU / ASB / LRU-2 vs LRU, %s, buffer %s", db.Name, fracLabel(frac)),
				RepresentativeSets, policies, frac, seed)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// Fig14 reproduces Figure 14: the candidate-set size of the ASB over the
// concatenated INT-W-33 + U-W-33 + S-W-33 workload. The table reports the
// per-phase average candidate size; the full trajectory is available via
// RunAdaptation.
func Fig14(opts Options, seed int64) ([]*Table, error) {
	db, err := Get(1, opts)
	if err != nil {
		return nil, err
	}
	at, err := RunAdaptation(db, LargestFrac, seed)
	if err != nil {
		return nil, err
	}
	rows := []string{"initial", "phase 1 (INT-W-33)", "phase 2 (U-W-33)", "phase 3 (S-W-33)"}
	t := NewTable("fig14", "ASB candidate-set size over the mixed workload, DB1",
		"avg candidate size [frames]", rows, []string{"candidate size", "of main part [%]"})
	set := func(row string, v float64) {
		_ = t.Set(row, "candidate size", v)
		_ = t.Set(row, "of main part [%]", v/float64(at.MainCap)*100)
	}
	set("initial", float64(at.Initial))
	for p := 0; p < 3; p++ {
		set(rows[p+1], at.PhaseAverage(p))
	}
	return []*Table{t}, nil
}

// FigLRUT reproduces the §3.2 observation: LRU-P beats LRU-T for small
// buffers and matches it for large ones.
func FigLRUT(opts Options, seed int64) ([]*Table, error) {
	db, err := Get(1, opts)
	if err != nil {
		return nil, err
	}
	policies := []string{"LRU-T", "LRU-P"}
	var tables []*Table
	for _, frac := range []float64{0.003, 0.047} {
		t, err := GainTable(db,
			fmt.Sprintf("lrut-%s", fracLabel(frac)),
			fmt.Sprintf("LRU-T vs LRU-P, DB1, buffer %s", fracLabel(frac)),
			RepresentativeSets, policies, frac, seed)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}
