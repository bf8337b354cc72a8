// Command bench is the repository's end-to-end benchmark: six closed-loop
// workloads of R*-tree operations through a buffer.Pool composition onto a
// storage.Store, measured from outside the layers. See README.md.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one run, as BENCHMARK.json's driver calls it
//	bench -seed N                                        every workload, untraced then traced
//	bench -aa                                            two sets of untraced runs, medians compared within bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed    = flag.Int64("seed", 1, "seed of the query sets and the update stream")
		seconds = flag.Int("seconds", 13, "measuring time per run")
		trace   = flag.String("trace", "", "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics (default: both)")
		aa      = flag.Bool("aa", false, "A/A check: two alternating sets of three untraced runs per workload; fail if their medians differ by more than a metric's bound")
		out     = flag.String("out", "out", "directory for latest.json, trace.<workload>.jsonl and temporary page files")
	)
	flag.Parse()
	if err := run(*names, *seed, *seconds, *trace, *aa, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(names string, seed int64, seconds int, trace string, aa bool, outDir string) error {
	var specs []*spec
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		sp := findWorkload(n)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", n)
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	}
	var modes []bool
	switch trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	measure := time.Duration(seconds) * time.Second

	if aa {
		return compareSets(specs, seed, measure, outDir)
	}
	var runs []*outcome
	for _, sp := range specs {
		for _, traced := range modes {
			res, err := runWorkload(sp, fullScale, seed, measure, traced, outDir)
			if err != nil {
				return err
			}
			if err := report(os.Stdout, res); err != nil {
				return err
			}
			runs = append(runs, res)
		}
	}
	if err := writeRecord(filepath.Join(outDir, "latest.json"), seed, seconds, runs); err != nil {
		return err
	}
	return incorrect(runs)
}

// incorrect reports the runs that failed an operation or an invariant.
func incorrect(runs []*outcome) error {
	failed := 0
	for _, res := range runs {
		if !res.Correct {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed %s\n", res.Workload, res.Failed, res.Attempted, res.Error)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs were not correct", failed)
	}
	return nil
}

// aaRuns is how many untraced runs of a workload make one A/A set. The
// sets' medians are compared, as the driver compares medians of runs: a
// single run that falls into one of the host's slow phases would fail
// identical code.
const aaRuns = 3

// compareSets is the A/A check: two sets of runs of the same code on the
// same inputs, alternating, must agree within each end-to-end metric's
// own bound, or the bound cannot tell a regression from noise.
func compareSets(specs []*spec, seed int64, measure time.Duration, outDir string) error {
	var off []string
	for _, sp := range specs {
		var sets [2][]*outcome
		for i := 0; i < 2*aaRuns; i++ {
			res, err := runWorkload(sp, fullScale, seed, measure, false, outDir)
			if err != nil {
				return err
			}
			if err := report(os.Stdout, res); err != nil {
				return err
			}
			sets[i%2] = append(sets[i%2], res)
		}
		if err := incorrect(append(sets[0], sets[1]...)); err != nil {
			return err
		}
		for _, m := range endToEnd {
			value := func(res *outcome) float64 { return res.Metrics[m.name] }
			a, b := median(column(sets[0], value)), median(column(sets[1], value))
			d := math.Abs(a-b) / a
			fmt.Printf("A/A %s %s %.6g vs %.6g %s, %.1f%% apart, bound %.0f%%\n", sp.name, m.name, a, b, m.unit, 100*d, 100*m.bound)
			if d > m.bound {
				off = append(off, sp.name+" "+m.name)
			}
		}
	}
	if len(off) > 0 {
		return fmt.Errorf("A/A sets disagree beyond the bound on: %s", strings.Join(off, ", "))
	}
	fmt.Println("A/A: both sets agree within every bound")
	return nil
}

// report prints one `workload metric value unit` line per metric, then
// the result line BENCHMARK.json's driver reads: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func report(w io.Writer, res *outcome) error {
	table := endToEnd
	if res.Traced {
		table = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range table {
		v, ok := res.Metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is missing or not finite", res.Workload, m.name)
		}
		flag := ""
		// A row whose rounds disagree by more than twice what the row is
		// allowed to regress by cannot resolve a regression.
		if s, ok := res.SpreadPct[m.name]; ok && s > 200*m.bound {
			flag = fmt.Sprintf("  unstable (rounds spread %.1f%%)", s)
		}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", res.Workload, m.name, v, m.unit, flag)
		line.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// record is latest.json: where, how and what was measured, with every
// round's raw values.
type record struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Objects    int            `json:"objects"`
	UpdateObjs int            `json:"update_objects"`
	RoundOps   map[string]int `json:"round_ops"`
	Runs       []*outcome     `json:"runs"`
}

func writeRecord(path string, seed int64, seconds int, runs []*outcome) error {
	rec := record{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Objects: fullScale.objects, UpdateObjs: fullScale.updateObjects,
		RoundOps: map[string]int{}, Runs: runs,
	}
	for _, sp := range workloads {
		rec.RoundOps[sp.name] = sp.ops
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit names the measured source; the driver's checkout is not a git
// repository, so failing to find one is expected there.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
