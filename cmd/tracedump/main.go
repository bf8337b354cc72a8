// Command tracedump records the page-reference trace of a query set
// against a database and reports its structure: length, distinct pages,
// per-level breakdown, and reuse statistics. With -refs it also dumps the
// raw reference string.
//
//	tracedump -db 1 -set INT-P
//
// With -mrc FILE it additionally replays the trace through offline
// shadow caches — every -mrc-policies policy at every -mrc-capacities
// buffer size (default: powers of two up to the trace's distinct page
// count) — and writes the resulting miss-ratio curves as a
// results/-style CSV (rows = capacities, columns = policies, values =
// miss ratios). This is the offline twin of bufserve's live
// spatialbuf_shadow_* gauges: same simulators, fed from a recorded
// trace instead of the live event stream.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/shadow"
	"repro/internal/page"
	"repro/internal/trace"
)

func main() { cli.Main("tracedump", declare) }

// declare declares tracedump's flags on fs.
func declare(fs *flag.FlagSet) (*obs.ProfileFlags, func() error) {
	var db cli.DB
	var prof obs.ProfileFlags
	db.Register(fs, "database number (1 or 2)", "object count (0 = default scale)")
	setName := fs.String("set", "U-P", "query set to trace")
	queries := fs.Int("queries", 0, "query count (0 = calibrated)")
	refs := fs.Bool("refs", false, "dump the raw reference string")
	mrc := fs.String("mrc", "", "write a miss-ratio-curve CSV (shadow-cache replay) to this file")
	mrcPols := fs.String("mrc-policies", "LRU,SLRU 50%,ASB", "with -mrc: comma-separated policies to curve")
	mrcCaps := fs.String("mrc-capacities", "", "with -mrc: comma-separated buffer sizes in frames (empty = powers of two up to the distinct page count)")
	prof.Register(fs)
	return &prof, func() error {
		given := false
		fs.Visit(func(f *flag.Flag) { given = given || strings.HasPrefix(f.Name, "mrc-") })
		if given && *mrc == "" {
			return fmt.Errorf("-mrc-policies and -mrc-capacities act on -mrc only: give -mrc")
		}
		return run(&db, *setName, *queries, *refs, *mrc, *mrcPols, *mrcCaps)
	}
}

func run(sel *cli.DB, setName string, queries int, dumpRefs bool, mrc, mrcPols, mrcCaps string) error {
	pols := cli.Split(mrcPols)
	if len(pols) == 0 {
		return fmt.Errorf("-mrc-policies is empty")
	}
	for i, p := range pols {
		if _, err := core.Resolver(p); err != nil {
			return fmt.Errorf("bad -mrc-policies entry %q: %w", p, err)
		} else if slices.Contains(pols[:i], p) {
			return fmt.Errorf("-mrc-policies names %q twice", p)
		}
	}
	var capacities []int
	for _, f := range cli.Split(mrcCaps) {
		v, err := strconv.Atoi(f)
		if err != nil || v < 2 || slices.Contains(capacities, v) {
			return fmt.Errorf("bad -mrc-capacities entry %q (want distinct integers ≥ 2)", f)
		}
		capacities = append(capacities, v)
	}
	db, err := sel.Get()
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if queries == 0 {
		tr, err = db.Trace(setName, sel.Seed)
	} else {
		set, qerr := db.QuerySet(setName, queries, sel.Seed)
		if qerr != nil {
			return qerr
		}
		tr, err = trace.Record(db.Tree, set)
	}
	if err != nil {
		return err
	}
	if tr.Len() == 0 {
		return fmt.Errorf("query set %s produced an empty trace: nothing to report", setName)
	}

	touch := make(map[page.ID]int)
	byLevel := make(map[int]int)
	numQueries := uint64(0)
	for _, r := range tr.Refs {
		touch[r.Page]++
		numQueries = max(numQueries, r.Query)
	}
	for id, n := range touch {
		p, err := db.Store.Read(id)
		if err != nil {
			return err
		}
		byLevel[p.Level] += n
	}

	fmt.Printf("%s / %s: %d queries, %d page references, %d distinct pages\n",
		db.Name, setName, numQueries, tr.Len(), len(touch))
	fmt.Printf("references per query: %.2f\n", float64(tr.Len())/float64(numQueries))

	levels := make([]int, 0, len(byLevel))
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	for _, l := range levels {
		kind := "data"
		if l > 0 {
			kind = "directory"
		}
		fmt.Printf("  level %d (%s): %d references (%.1f%%)\n",
			l, kind, byLevel[l], float64(byLevel[l])/float64(tr.Len())*100)
	}

	counts := make([]int, 0, len(touch))
	for _, c := range touch {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	cum, covered := 0, len(counts)
	for i, c := range counts {
		cum += c
		if cum*10 >= tr.Len()*8 { // 80% of references (one page each)
			covered = i + 1
			break
		}
	}
	fmt.Printf("hottest page: %d references; 80%% of references hit %d pages (%.1f%% of touched)\n",
		counts[0], covered, float64(covered)/float64(len(touch))*100)

	if mrc != "" {
		if err := writeMRC(tr, db, mrc, pols, capacities, len(touch)); err != nil {
			return err
		}
	}
	if dumpRefs {
		for _, r := range tr.Refs {
			fmt.Printf("%d\t%d\n", r.Query, r.Page)
		}
	}
	return nil
}

// writeMRC replays the trace through a grid of offline shadow caches —
// every requested policy at every capacity — and writes the miss-ratio
// curves as a results/-style CSV: one row per capacity, one column per
// policy. Page descriptors are read from the store once (PageMetas), so
// the replay itself is pure in-memory simulation.
func writeMRC(tr *trace.Trace, db *experiment.Database, path string, pols []string, capacities []int, distinct int) error {
	if len(capacities) == 0 {
		for c := 2; ; c *= 2 {
			capacities = append(capacities, c)
			if c >= distinct {
				break
			}
		}
	}
	sort.Ints(capacities)

	var specs []shadow.Spec
	for _, p := range pols {
		for _, c := range capacities {
			specs = append(specs, shadow.Spec{Policy: p, Capacity: c})
		}
	}
	bank, err := shadow.NewBank(specs, core.Resolver, 0)
	if err != nil {
		return err
	}
	metas, err := trace.PageMetas(tr, db.Store)
	if err != nil {
		return err
	}
	for _, ref := range tr.Refs {
		bank.Request(obs.RequestEvent{Page: ref.Page, QueryID: ref.Query, Meta: metas[ref.Page]})
	}

	missAt := make(map[shadow.Spec]float64, bank.Len())
	for _, st := range bank.Stats() {
		missAt[shadow.Spec{Policy: st.Policy, Capacity: st.Capacity}] = 1 - st.HitRatio
	}
	t := experiment.NewTable("mrc", "", "", make([]string, len(capacities)), pols)
	for ri, c := range capacities {
		t.Rows[ri] = strconv.Itoa(c)
		for ci, p := range pols {
			t.Cells[ri][ci] = missAt[shadow.Spec{Policy: p, Capacity: c}]
		}
	}
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote miss-ratio curves (%d policies × %d capacities over %d references) to %s\n",
		len(pols), len(capacities), tr.Len(), path)
	return nil
}
