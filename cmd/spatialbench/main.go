// Command spatialbench reproduces the evaluation of Brinkhoff (EDBT 2002):
// it builds the synthetic databases, runs the paper's query sets across
// replacement policies and buffer sizes, and prints the figures as tables
// of relative performance gains.
//
// Reproduce one figure (4, 5, 6, 7, 8, 9, 12, 13, 14 or "lrut") or one
// extension (crosssam, updates, join, filterrefine, ablation-overflow,
// ablation-criteria):
//
//	spatialbench -figure 13
//
// Reproduce everything (this is how EXPERIMENTS.md is generated):
//
//	spatialbench -figure all
//
// Ad-hoc sweeps:
//
//	spatialbench -db 1 -sets U-P,INT-P -policies LRU,A,ASB -fracs 0.006,0.047
//
// Scale control: -objects overrides the object count per database;
// -paperscale uses the paper's sizes (1,641,079 / 572,694 — minutes of
// build time). -csv writes each table additionally as CSV into a
// directory.
//
// Observability: -events FILE re-replays an ad-hoc sweep sequentially
// with a JSONL event sink attached (one "mark" line per combination);
// -window N prints each combination's hit ratio over every N references,
// read off the pool's Stats. The Fig. 14 candidate-size trajectory is
// asbviz's: asbviz -csv FILE writes it, asbviz -in FILE renders it. The
// standard -cpuprofile, -memprofile and -trace flags profile the whole
// run. What-if policies and capacities
// over the same trace are tracedump -mrc.
//
// Request tracing: -trace-out FILE attaches a sampling span recorder
// (1 in -trace-sample requests) to every replay the run performs and
// writes the retained traces as Chrome trace-event JSON — load the
// file in chrome://tracing or https://ui.perfetto.dev to see sampled
// requests as nested Get → victim-select → store.Read span trees with
// shard ids and ASB criterion values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/cmd/internal/cli"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
)

// config collects the command-line options.
type config struct {
	figure     string
	db         cli.DB
	sets       string
	policies   string
	fracs      string
	paperScale bool
	csvDir     string
	events     string
	window     int
	pool       string

	traceOut    string
	traceSample int

	prof obs.ProfileFlags
}

func main() { cli.Main("spatialbench", declare) }

// declare declares spatialbench's flags on fs.
func declare(fs *flag.FlagSet) (*obs.ProfileFlags, func() error) {
	cfg := new(config)
	fs.StringVar(&cfg.figure, "figure", "", "figure to reproduce: 4..9, 12..14, lrut, the extensions crosssam/updates/join/filterrefine/ablation-overflow/ablation-criteria, or 'all'")
	cfg.db.Register(fs, "database number for ad-hoc sweeps (1 or 2)", "objects per database (0 = default scale)")
	fs.StringVar(&cfg.sets, "sets", "", "comma-separated query sets for an ad-hoc sweep (e.g. U-P,INT-W-33)")
	fs.StringVar(&cfg.policies, "policies", "LRU,A,LRU-2,ASB", "comma-separated policies for an ad-hoc sweep: registry names or parameterized specs like LRU-K:4, SLRU:EA:0.25")
	fs.StringVar(&cfg.fracs, "fracs", "0.006,0.047", "comma-separated buffer fractions for an ad-hoc sweep")
	fs.BoolVar(&cfg.paperScale, "paperscale", false, "use the paper's database sizes (slow)")
	fs.StringVar(&cfg.csvDir, "csv", "", "directory to additionally write tables as CSV")
	fs.StringVar(&cfg.events, "events", "", "with -sets: write the sweep's event stream as JSONL to this file")
	fs.IntVar(&cfg.window, "window", 0, "with -sets: print hit ratios over windows of N requests")
	fs.StringVar(&cfg.pool, "pool", "bare", "with -events/-window: pool composition spec for instrumented replays, layout[,shards=N][,wbworkers=N] with layout bare|locked|sharded|async (per-shard policy instances when sharded)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write request span traces as Chrome trace-event JSON to this file")
	fs.IntVar(&cfg.traceSample, "trace-sample", 1024, "with -trace-out: trace 1 in N buffer requests")
	cfg.prof.Register(fs)
	return &cfg.prof, func() error { return run(cfg) }
}

func run(cfg *config) error {
	if cfg.figure == "" && cfg.sets == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Everything the flags can get wrong fails here, before any database
	// is built.
	comp, err := buffer.ParseComposition(cfg.pool)
	if err != nil {
		return err
	}
	fracs, err := cli.Floats("fracs", cfg.fracs)
	if err != nil {
		return err
	}
	if cfg.window < 0 {
		return fmt.Errorf("-window %d: want a number of requests ≥ 0", cfg.window)
	}
	if cfg.traceSample < 1 {
		return fmt.Errorf("bad -trace-sample value %d (want an integer ≥ 1)", cfg.traceSample)
	}
	if err := cfg.db.Parse(); err != nil {
		return err
	}
	if cfg.sets == "" && (cfg.window > 0 || cfg.events != "") {
		return fmt.Errorf("-window and -events act on ad-hoc sweeps only: give -sets")
	}
	figs := experiment.Figures()
	var figIDs []string
	switch {
	case cfg.figure == "":
	case cfg.paperScale:
		// Figures build both databases; per-figure paper-scale runs
		// should use ad-hoc mode per database instead.
		return fmt.Errorf("-paperscale is only supported for ad-hoc sweeps (-sets); use -objects to scale figures")
	case cfg.figure == "all":
		figIDs = experiment.FigureIDs()
	case figs[cfg.figure] == nil:
		return fmt.Errorf("unknown figure %q (have %v)", cfg.figure, experiment.FigureIDs())
	default:
		figIDs = []string{cfg.figure}
	}
	if cfg.paperScale {
		cfg.db.Objects = experiment.PaperObjects[cfg.db.Num]
	}

	var tracer *tracing.Tracer
	if cfg.traceOut != "" {
		// Offline runs keep a deep ring: the file is written once at the
		// end, so retention is the only thing bounding what it can show.
		tracer = tracing.NewTracer(cfg.traceSample, comp.ShardCount(), 4096)
		experiment.SetTracer(tracer)
		defer experiment.SetTracer(nil)
	}

	emit := func(tables []*experiment.Table) error {
		for _, t := range tables {
			fmt.Println(t.Render())
			if cfg.csvDir != "" {
				if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
					return err
				}
				path := filepath.Join(cfg.csvDir, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if cfg.sets != "" {
		if err := adHoc(cfg, fracs, comp, tracer, emit); err != nil {
			return err
		}
	}

	for _, id := range figIDs {
		fmt.Printf("=== Figure %s ===\n", id)
		tables, err := figs[id](cfg.db.Options(), cfg.db.Seed)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if err := emit(tables); err != nil {
			return err
		}
	}

	if tracer != nil {
		return writeTraces(tracer, cfg.traceOut)
	}
	return nil
}

// writeTraces dumps everything the tracer retained as Chrome trace-event
// JSON.
func writeTraces(tracer *tracing.Tracer, path string) error {
	traces := tracer.Traces(0)
	err := cli.WriteFile(path, func(w io.Writer) error { return tracing.WriteChromeTrace(w, traces) })
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d request traces (1 in %d of %d requests) to %s\n",
		len(traces), tracer.SampleEvery(), tracer.Seen(), path)
	return nil
}

// adHoc runs a custom sweep and prints one gain table per buffer
// fraction. With -events or -window it additionally re-replays every
// combination sequentially, observed.
func adHoc(cfg *config, fracList []float64, comp buffer.Composition, tracer *tracing.Tracer, emit func([]*experiment.Table) error) error {
	db, err := cfg.db.Get()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d objects, %d pages (%.2f%% directory), height %d\n",
		db.Name, db.Stats.NumObjects, db.Stats.TotalPages(),
		db.Stats.DirFraction()*100, db.Stats.Height)

	setNames := cli.Split(cfg.sets)
	polNames := cli.Split(cfg.policies)

	var tables []*experiment.Table
	for _, frac := range fracList {
		t, err := experiment.GainTable(db,
			fmt.Sprintf("adhoc-db%d-%.1f%%", cfg.db.Num, frac*100),
			fmt.Sprintf("ad-hoc sweep, %s, buffer %.1f%%", db.Name, frac*100),
			setNames, polNames, frac, cfg.db.Seed)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	if err := emit(tables); err != nil {
		return err
	}
	if cfg.events != "" || cfg.window > 0 {
		return instrumentedReplays(db, setNames, polNames, fracList, cfg.db.Seed, cfg.events, cfg.window, comp, tracer)
	}
	return nil
}

// instrumentedReplays re-runs each (set, policy, fraction) combination of
// an ad-hoc sweep sequentially, observed: a JSONL event stream separated
// by "mark" lines, and/or a windowed hit-ratio report. Kept separate from the parallel sweep so the measured tables
// stay unperturbed and the event file has a deterministic order.
//
// The replays program against buffer.Pool: each combination runs
// through the pool composition comp describes — with a sharded layout,
// one policy instance per shard, events tagged with their shard,
// measuring the partitioned variant of each policy instead of the
// monolithic one. The replay itself is single-threaded, where the async
// pool is stat-for-stat identical to the synchronous one, so the tables
// stay comparable.
func instrumentedReplays(db *experiment.Database, setNames, polNames []string, fracs []float64, seed int64, eventsPath string, window int, comp buffer.Composition, tracer *tracing.Tracer) error {
	var jsonl *obs.JSONLSink
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return err
		}
		jsonl = obs.NewJSONLSinkCloser(f)
		defer jsonl.Close()
	}
	for _, set := range setNames {
		tr, err := db.Trace(set, seed)
		if err != nil {
			return err
		}
		for _, frac := range fracs {
			frames := db.Frames(frac)
			for _, polName := range polNames {
				fac, err := core.FactoryByName(polName)
				if err != nil {
					return err
				}
				label := fmt.Sprintf("%s/%s/%.4f", set, polName, frac)
				pool, err := comp.Build(db.Store, fac.New, frames)
				if err != nil {
					return fmt.Errorf("instrumented replay %s: %w", label, err)
				}
				if jsonl != nil {
					jsonl.Mark(label)
					pool.SetSink(jsonl)
				}
				cli.Trace(pool, tracer, nil)
				windows, tail, err := windowedReplay(tr, pool, window)
				if err != nil {
					return fmt.Errorf("instrumented replay %s: %w", label, err)
				}
				if err := cli.Close(pool); err != nil {
					return fmt.Errorf("instrumented replay %s: close: %w", label, err)
				}
				if window > 0 {
					fmt.Printf("%-24s windowed hit ratio (n=%d):", label, window)
					for _, r := range windows {
						fmt.Printf(" %.3f", r)
					}
					if tail.Requests > 0 {
						fmt.Printf(" [%.3f]", tail.HitRatio())
					}
					fmt.Println()
				}
			}
		}
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", eventsPath, err)
		}
		fmt.Printf("wrote event stream to %s\n", eventsPath)
	}
	return nil
}

// windowedReplay replays tr through pool from a cleared pool, as
// trace.ReplayOn does, and reads the pool's Stats after every n
// references (n ≤ 0: never): it returns the hit ratio of each complete
// window of n references and the requests and hits of the trailing
// partial one.
func windowedReplay(tr *trace.Trace, pool buffer.Pool, n int) (ratios []float64, tail buffer.Stats, err error) {
	if err := pool.Clear(); err != nil {
		return nil, tail, err
	}
	var last buffer.Stats
	since := func(st buffer.Stats) buffer.Stats {
		return buffer.Stats{Requests: st.Requests - last.Requests, Hits: st.Hits - last.Hits}
	}
	for i, ref := range tr.Refs {
		if _, err := pool.Get(ref.Page, buffer.AccessContext{QueryID: ref.Query}); err != nil {
			return nil, tail, fmt.Errorf("page %d: %w", ref.Page, err)
		}
		if n > 0 && (i+1)%n == 0 {
			st := pool.Stats()
			ratios = append(ratios, since(st).HitRatio())
			last = st
		}
	}
	return ratios, since(pool.Stats()), nil
}
