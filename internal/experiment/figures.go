package experiment

import (
	"fmt"
	"slices"
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

// gainFigure is a figure made of one GainTable per database and buffer
// fraction: title, then the database and the fraction, heads each table.
type gainFigure struct {
	id       string // prefix of the table IDs
	title    string
	dbs      []int
	fracs    []float64
	sets     []string
	policies []string
}

var (
	db1, bothDBs = []int{1}, []int{1, 2}
	usualFracs   = []float64{0.006, 0.047}         // the pair most of the paper's figures show
	extremeFracs = []float64{0.003, 0.047}         // the smallest and the largest buffer
	comparison   = []string{"LRU-P", "A", "LRU-2"} // §3.5's three, against LRU
	// ablationSets are the representative sets plus the medium uniform
	// window set U-W-100.
	ablationSets = slices.Insert(slices.Clone(RepresentativeSets), 2, "U-W-100")
)

// figures is the registry in display order: the paper's figures by
// number, then the named ones (all but "lrut" are extensions beyond the
// paper).
var figures = []struct {
	id string
	fn FigureFunc
}{
	{"4", fig4},
	// Figure 5: LRU-K (K = 2, 3, 5) against LRU on the primary database
	// across all distribution families.
	{"5", gainFigure{"fig5", "LRU-K vs LRU", db1, usualFracs,
		RepresentativeSets, []string{"LRU-2", "LRU-3", "LRU-5"}}.tables},
	{"6", fig6},
	// Figures 7–9: the uniform, the identical and similar, the independent
	// and intensified distributions.
	{"7", gainFigure{"fig7", "LRU-P / A / LRU-2 vs LRU", bothDBs, usualFracs,
		UniformSets, comparison}.tables},
	{"8", gainFigure{"fig8", "LRU-P / A / LRU-2 vs LRU", bothDBs, usualFracs,
		IdenticalSimilarSets, comparison}.tables},
	{"9", gainFigure{"fig9", "LRU-P / A / LRU-2 vs LRU", bothDBs, usualFracs,
		slices.Concat(IndependentSets, IntensifiedSets), comparison}.tables},
	// Figure 12: SLRU with static candidate sets of 50% and 25% against
	// the pure spatial strategy A.
	{"12", gainFigure{"fig12", "static candidate sets", db1, usualFracs,
		RepresentativeSets, []string{"A", "SLRU 50%", "SLRU 25%"}}.tables},
	// Figure 13, the headline comparison: A, SLRU 25%, ASB and LRU-2
	// against LRU on both databases.
	{"13", gainFigure{"fig13", "A / SLRU / ASB / LRU-2 vs LRU", bothDBs, usualFracs,
		RepresentativeSets, []string{"A", "SLRU 25%", "ASB", "LRU-2"}}.tables},
	{"14", fig14},
	{"crosssam", figCrossSAM},
	// The §3.2 observation: LRU-P beats LRU-T for small buffers and
	// matches it for large ones.
	{"lrut", gainFigure{"lrut", "LRU-T vs LRU-P", db1, extremeFracs,
		RepresentativeSets, []string{"LRU-T", "LRU-P"}}.tables},
	{"updates", figUpdates},
	{"join", figJoin},
	{"filterrefine", figFilterRefine},
	// The paper's future-work item 1, the overflow-buffer share, swept
	// around its 20% default; and ASB with each spatial criterion in
	// place of A. ASB:A:0.2 and ASB:A are the "ASB" of Fig. 13.
	{"ablation-overflow", gainFigure{"ablation-overflow", "ASB overflow share", db1, []float64{LargestFrac},
		ablationSets, []string{"ASB:A:0.05", "ASB:A:0.1", "ASB:A:0.2", "ASB:A:0.3", "ASB:A:0.4"}}.tables},
	{"ablation-criteria", gainFigure{"ablation-criteria", "ASB spatial criterion", db1, []float64{LargestFrac},
		ablationSets, []string{"ASB:A", "ASB:M", "ASB:EA", "ASB:EM", "ASB:EO"}}.tables},
}

// Figures maps figure identifiers ("4".."9", "12".."14", "lrut",
// "crosssam", "updates", "join", "filterrefine", "ablation-overflow",
// "ablation-criteria") to their reproduction functions.
func Figures() map[string]FigureFunc {
	m := make(map[string]FigureFunc, len(figures))
	for _, f := range figures {
		m[f.id] = f.fn
	}
	return m
}

// FigureIDs returns the figure identifiers in display order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
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

// tables renders the figure; a figure over both databases names the
// database in its table IDs.
func (g gainFigure) tables(opts Options, seed int64) ([]*Table, error) {
	var tables []*Table
	for _, dbn := range g.dbs {
		db, err := Get(dbn, opts)
		if err != nil {
			return nil, err
		}
		id := g.id
		if len(g.dbs) > 1 {
			id = fmt.Sprintf("%s-db%d", g.id, dbn)
		}
		for _, frac := range g.fracs {
			t, err := GainTable(db,
				fmt.Sprintf("%s-%s", id, fracLabel(frac)),
				fmt.Sprintf("%s, %s, buffer %s", g.title, db.Name, fracLabel(frac)),
				g.sets, g.policies, frac, seed)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// fig4 reproduces Figure 4: the gain of LRU-P over LRU for the uniform
// and intensified query sets on both databases, across all buffer sizes.
func fig4(opts Options, seed int64) ([]*Table, error) {
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

// fig6 reproduces Figure 6: the five spatial strategies relative to A
// (accesses of A = 100%) on the primary database.
func fig6(opts Options, seed int64) ([]*Table, error) {
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

// fig14 reproduces Figure 14: the candidate-set size of the ASB over the
// concatenated INT-W-33 + U-W-33 + S-W-33 workload. The table reports the
// per-phase average candidate size; the full trajectory is available via
// RunAdaptation.
func fig14(opts Options, seed int64) ([]*Table, error) {
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
