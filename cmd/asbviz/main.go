// Command asbviz reproduces Figure 14 of the paper: the candidate-set
// size of the adaptable spatial buffer over the concatenated mixed
// workload INT-W-33 + U-W-33 + S-W-33. It prints per-phase averages, an
// ASCII plot of the trajectory, and optionally the full series as CSV.
//
//	asbviz -db 1 -frac 0.047
//	asbviz -csv trajectory.csv
//
// Instead of recomputing, -in renders a previously captured trajectory
// (written by asbviz -csv):
//
//	asbviz -in trajectory.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/experiment"
	"repro/internal/obs"
)

func main() { cli.Main("asbviz", declare) }

// declare declares asbviz's flags on fs.
func declare(fs *flag.FlagSet) (*obs.ProfileFlags, func() error) {
	var db cli.DB
	db.Register(fs, "database number (1 or 2)", "object count (0 = default scale)")
	frac := fs.Float64("frac", experiment.LargestFrac, "buffer size as a fraction of the page count")
	csvPath := fs.String("csv", "", "write the (refIndex, candidateSize) series as CSV")
	inPath := fs.String("in", "", "render a previously captured trajectory CSV instead of recomputing")
	width := fs.Int("width", 100, "plot width in columns")
	height := fs.Int("height", 20, "plot height in rows")
	return nil, func() error {
		// A plot smaller than one cell fails here, before any database is
		// built, rather than after the whole run.
		for _, f := range []struct {
			name string
			val  int
		}{{"width", *width}, {"height", *height}} {
			if f.val < 1 {
				return fmt.Errorf("bad -%s value %d (want an integer ≥ 1)", f.name, f.val)
			}
		}
		if *inPath != "" {
			return runFromFile(*inPath, *width, *height)
		}
		return run(&db, *frac, *csvPath, *width, *height)
	}
}

func run(sel *cli.DB, frac float64, csvPath string, width, height int) error {
	if err := sel.Parse(); err != nil {
		return err
	}
	db, err := sel.Get()
	if err != nil {
		return err
	}
	at, err := experiment.RunAdaptation(db, frac, sel.Seed)
	if err != nil {
		return err
	}

	fmt.Printf("%s, buffer %.1f%% (%d frames; main part %d, initial candidate %d)\n",
		db.Name, frac*100, at.Frames, at.MainCap, at.Initial)
	phases := []string{"INT-W-33", "U-W-33", "S-W-33"}
	for p, name := range phases {
		avg := at.PhaseAverage(p)
		fmt.Printf("phase %d (%-8s): avg candidate size %6.1f  (%.0f%% of main part)\n",
			p+1, name, avg, avg/float64(at.MainCap)*100)
	}
	fmt.Printf("%d adaptation events over %d references\n\n", len(at.Sizes), at.PhaseEnds[2])

	plot(at.RefAt, at.Sizes, at.PhaseEnds[2], at.MainCap, at.Initial, at.PhaseEnds[:2], width, height)
	legend(width, phases)

	if csvPath != "" {
		err := cli.WriteFile(csvPath, func(w io.Writer) error { return obs.WriteTrajectoryCSV(w, at.RefAt, at.Sizes) })
		if err != nil {
			return err
		}
		fmt.Printf("\nwrote %d samples to %s\n", len(at.Sizes), csvPath)
	}
	return nil
}

// runFromFile renders a captured trajectory. The CSV carries no phase
// boundaries or buffer geometry, so bounds are inferred from the data:
// the y-axis spans up to the largest candidate size seen and the x-axis
// ends at the last sample.
func runFromFile(path string, width, height int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	refs, cands, err := obs.ReadTrajectoryCSV(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(refs) == 0 {
		fmt.Println("(no adaptation events)")
		return nil
	}
	maxCand, total := slices.Max(cands), refs[len(refs)-1]+1
	fmt.Printf("%s: %d adaptation events over %d references, candidate size %d..%d\n\n",
		path, len(refs), total, slices.Min(cands), maxCand)
	plot(refs, cands, total, maxCand, cands[0], nil, width, height)
	return nil
}

// plot renders a candidate-size trajectory as ASCII art: step-wise,
// carrying the last size forward, with optional phase boundaries marked
// as vertical bars.
func plot(refAt, sizes []int, total, maxSize, initial int, bounds []int, width, height int) {
	if len(sizes) == 0 {
		fmt.Println("(no adaptation events)")
		return
	}
	if total < 1 {
		total = 1
	}
	if maxSize < 1 {
		maxSize = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(ref int) int {
		c := ref * (width - 1) / total
		if c >= width {
			c = width - 1
		}
		return c
	}
	row := func(size int) int {
		r := height - 1 - (size-1)*(height-1)/maxSize
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	last := initial
	idx := 0
	for ref := 0; ref < total; ref++ {
		for idx < len(refAt) && refAt[idx] <= ref {
			last = sizes[idx]
			idx++
		}
		grid[row(last)][col(ref)] = '*'
	}
	for _, end := range bounds {
		c := col(end)
		for r := 0; r < height; r++ {
			if grid[r][c] == ' ' {
				grid[r][c] = '|'
			}
		}
	}
	fmt.Printf("%4d +%s\n", maxSize, strings.Repeat("-", width))
	for r, line := range grid {
		label := "     "
		if r == height-1 {
			label = "   1 "
		}
		fmt.Printf("%s|%s\n", label, string(line))
	}
	fmt.Printf("     +%s\n", strings.Repeat("-", width))
}

// legend prints the phase names under the plot.
func legend(width int, phases []string) {
	fmt.Printf("      %-*s%-*s%s\n", width/3, phases[0], width/3, phases[1], phases[2])
}
