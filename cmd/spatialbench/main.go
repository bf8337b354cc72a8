// Command spatialbench reproduces the evaluation of Brinkhoff (EDBT 2002):
// it builds the synthetic databases, runs the paper's query sets across
// replacement policies and buffer sizes, and prints the figures as tables
// of relative performance gains.
//
// Reproduce one figure (4, 5, 6, 7, 8, 9, 12, 13, 14 or "lrut"):
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
// -window N prints windowed hit ratios per combination; -shadow lists
// what-if policies simulated by metadata-only shadow caches during the
// replays (with the -shadow-ladder capacity rungs of the replayed
// policy), printing per-combination hit ratios and regret; -ctraj FILE runs
// the Fig. 14 adaptation workload and writes the ASB candidate-size
// trajectory as CSV (render it with asbviz -in FILE). The standard
// -cpuprofile, -memprofile and -trace flags profile the whole run.
//
// Live monitoring: -serve ADDR starts the metrics HTTP server of
// internal/obs/live (Prometheus /metrics, JSON /vars, /healthz, SSE
// /events/ctraj, dashboard at /) and feeds it every replay the run
// performs, so long sweeps can be watched while they execute.
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
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/shadow"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
)

// config collects the command-line options.
type config struct {
	figure     string
	dbNum      int
	sets       string
	policies   string
	fracs      string
	objects    int
	paperScale bool
	seed       int64
	csvDir     string
	events     string
	window     int
	ctraj      string
	serve      string
	pool       string

	traceOut    string
	traceSample int

	shadowPolicies string
	shadowLadder   string
	shadowSample   int
}

func main() {
	var cfg config
	var prof obs.ProfileFlags
	flag.StringVar(&cfg.figure, "figure", "", "figure to reproduce: 4..9, 12..14, lrut, the extensions crosssam/updates, or 'all'")
	flag.IntVar(&cfg.dbNum, "db", 1, "database number for ad-hoc sweeps (1 or 2)")
	flag.StringVar(&cfg.sets, "sets", "", "comma-separated query sets for an ad-hoc sweep (e.g. U-P,INT-W-33)")
	flag.StringVar(&cfg.policies, "policies", "LRU,A,LRU-2,ASB", "comma-separated policies for an ad-hoc sweep: registry names or parameterized specs like LRU-K:4, SLRU:EA:0.25")
	flag.StringVar(&cfg.fracs, "fracs", "0.006,0.047", "comma-separated buffer fractions for an ad-hoc sweep")
	flag.IntVar(&cfg.objects, "objects", 0, "objects per database (0 = default scale)")
	flag.BoolVar(&cfg.paperScale, "paperscale", false, "use the paper's database sizes (slow)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generation seed")
	flag.StringVar(&cfg.csvDir, "csv", "", "directory to additionally write tables as CSV")
	flag.StringVar(&cfg.events, "events", "", "with -sets: write the sweep's event stream as JSONL to this file")
	flag.IntVar(&cfg.window, "window", 0, "with -sets: print hit ratios over windows of N requests")
	flag.StringVar(&cfg.ctraj, "ctraj", "", "run the Fig. 14 adaptation workload and write the c-trajectory CSV to this file")
	flag.StringVar(&cfg.serve, "serve", "", "serve live metrics on this address (e.g. :8080) while the run executes")
	flag.StringVar(&cfg.pool, "pool", "bare", "with -events/-window/-shadow: pool composition spec for instrumented replays, layout[,shards=N][,wbworkers=N][,wbqueue=N] with layout bare|locked|sharded|async (per-shard policy instances when sharded)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write request span traces as Chrome trace-event JSON to this file")
	flag.IntVar(&cfg.traceSample, "trace-sample", 1024, "with -trace-out: trace 1 in N buffer requests")
	flag.StringVar(&cfg.shadowPolicies, "shadow", "", "with -sets: comma-separated what-if policies shadow-simulated during instrumented replays (names or specs, e.g. LRU,SLRU 50%,LRU-K:4,ASB)")
	flag.StringVar(&cfg.shadowLadder, "shadow-ladder", formatLadder(shadow.DefaultLadder()), "with -shadow: capacity multipliers the replayed policy is shadow-simulated at")
	flag.IntVar(&cfg.shadowSample, "shadow-sample", 1, "with -shadow: feed the shadow bank 1 in N request events")
	prof.Register(flag.CommandLine)
	flag.Parse()

	if cfg.figure == "" && cfg.sets == "" && cfg.ctraj == "" {
		flag.Usage()
		os.Exit(2)
	}
	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatialbench:", err)
		os.Exit(1)
	}
	err = run(cfg)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatialbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	opts := experiment.Options{Objects: cfg.objects, Seed: cfg.seed}

	comp, err := buffer.ParseComposition(cfg.pool)
	if err != nil {
		return err
	}

	var tracer *tracing.Tracer
	if cfg.traceOut != "" {
		sample := cfg.traceSample
		if sample < 1 {
			sample = 1
		}
		// Offline runs keep a deep ring: the file is written once at the
		// end, so retention is the only thing bounding what it can show.
		tracer = tracing.NewTracer(sample, comp.ShardCount(), 4096)
		experiment.SetTracer(tracer)
		defer experiment.SetTracer(nil)
	}

	if cfg.serve != "" {
		// The listener is opened synchronously so a bad address fails the
		// run instead of a background goroutine. Every replay the
		// experiment package performs then feeds the service's sink; the
		// server is torn down with the process (benchmark runs exit when
		// done, so there is no separate shutdown path).
		svc := live.NewService()
		ln, err := net.Listen("tcp", cfg.serve)
		if err != nil {
			return fmt.Errorf("-serve %s: %w", cfg.serve, err)
		}
		experiment.SetObserver(svc.Sink())
		go http.Serve(ln, svc.Handler())
		fmt.Printf("serving live metrics on http://%s/\n", ln.Addr())
	}

	optsFor := func(n int) experiment.Options {
		o := opts
		if cfg.paperScale {
			o.Objects = experiment.PaperObjects[n]
		}
		return o
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
		if err := adHoc(cfg, optsFor(cfg.dbNum), comp, tracer, emit); err != nil {
			return err
		}
	}

	if cfg.figure != "" {
		figs := experiment.Figures()
		var ids []string
		if cfg.figure == "all" {
			ids = experiment.FigureIDs()
		} else {
			if figs[cfg.figure] == nil {
				return fmt.Errorf("unknown figure %q (have %v)", cfg.figure, experiment.FigureIDs())
			}
			ids = []string{cfg.figure}
		}
		for _, id := range ids {
			fmt.Printf("=== Figure %s ===\n", id)
			if cfg.paperScale {
				// Figures build both databases; per-figure paper-scale runs
				// should use ad-hoc mode per database instead.
				return fmt.Errorf("-paperscale is only supported for ad-hoc sweeps (-sets); use -objects to scale figures")
			}
			tables, err := figs[id](opts, cfg.seed)
			if err != nil {
				return fmt.Errorf("figure %s: %w", id, err)
			}
			if err := emit(tables); err != nil {
				return err
			}
		}
	}

	if cfg.ctraj != "" {
		if err := writeCTrajectory(cfg.dbNum, optsFor(cfg.dbNum), cfg.seed, cfg.ctraj); err != nil {
			return err
		}
	}

	if tracer != nil {
		if err := writeTraces(tracer, cfg.traceOut); err != nil {
			return err
		}
	}
	return nil
}

// writeTraces dumps everything the tracer retained as Chrome trace-event
// JSON.
func writeTraces(tracer *tracing.Tracer, path string) error {
	traces := tracer.Traces(0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WriteChromeTrace(f, traces); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d request traces (1 in %d of %d requests) to %s\n",
		len(traces), tracer.SampleEvery(), tracer.Seen(), path)
	return nil
}

// writeCTrajectory runs the Fig. 14 mixed workload (INT-W-33 + U-W-33 +
// S-W-33 through an ASB buffer) and writes the candidate-size trajectory
// captured from the event stream as "ref,candidate" CSV.
func writeCTrajectory(dbNum int, opts experiment.Options, seed int64, path string) error {
	db, err := experiment.Get(dbNum, opts)
	if err != nil {
		return err
	}
	at, err := experiment.RunAdaptation(db, experiment.LargestFrac, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrajectoryCSV(f, at.RefAt, at.Sizes); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote c-trajectory (%d samples over %d references) to %s\n",
		len(at.Sizes), at.PhaseEnds[2], path)
	return nil
}

// adHoc runs a custom sweep and prints one gain table per buffer
// fraction. With -events or -window it additionally re-replays every
// combination sequentially with observability sinks attached.
func adHoc(cfg config, opts experiment.Options, comp buffer.Composition, tracer *tracing.Tracer, emit func([]*experiment.Table) error) error {
	db, err := experiment.Get(cfg.dbNum, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d objects, %d pages (%.2f%% directory), height %d\n",
		db.Name, db.Stats.NumObjects, db.Stats.TotalPages(),
		db.Stats.DirFraction()*100, db.Stats.Height)

	setNames := splitCSV(cfg.sets)
	polNames := splitCSV(cfg.policies)
	var fracList []float64
	for _, f := range splitCSV(cfg.fracs) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("bad fraction %q: %w", f, err)
		}
		fracList = append(fracList, v)
	}

	withLRU := polNames
	if !contains(polNames, "LRU") {
		withLRU = append([]string{"LRU"}, polNames...)
	}
	var factories []core.Factory
	for _, n := range withLRU {
		f, err := core.FactoryByName(n)
		if err != nil {
			return err
		}
		factories = append(factories, f)
	}
	sw, err := experiment.Run(db, setNames, factories, fracList, cfg.seed)
	if err != nil {
		return err
	}
	var tables []*experiment.Table
	for _, frac := range fracList {
		t := experiment.NewTable(
			fmt.Sprintf("adhoc-db%d-%.1f%%", cfg.dbNum, frac*100),
			fmt.Sprintf("ad-hoc sweep, %s, buffer %.1f%%", db.Name, frac*100),
			"gain vs LRU [%]", setNames, polNames)
		for _, set := range setNames {
			for _, pol := range polNames {
				g, err := sw.Gain(set, pol, frac)
				if err != nil {
					return err
				}
				if err := t.Set(set, pol, g*100); err != nil {
					return err
				}
			}
		}
		tables = append(tables, t)
	}
	if err := emit(tables); err != nil {
		return err
	}
	if cfg.events != "" || cfg.window > 0 || cfg.shadowPolicies != "" {
		return instrumentedReplays(db, setNames, polNames, fracList, cfg.seed, cfg.events, cfg.window, comp, tracer,
			splitCSV(cfg.shadowPolicies), parseLadder(cfg.shadowLadder), cfg.shadowSample)
	}
	return nil
}

// instrumentedReplays re-runs each (set, policy, fraction) combination of
// an ad-hoc sweep sequentially with observability sinks attached: a JSONL
// event stream separated by "mark" lines, and/or a windowed hit-ratio
// report. Kept separate from the parallel sweep so the measured tables
// stay unperturbed and the event file has a deterministic order.
//
// The replays program against buffer.Pool: each combination runs
// through the pool composition comp describes — with a sharded layout,
// one policy instance per shard, events tagged with their shard,
// measuring the partitioned variant of each policy instead of the
// monolithic one. The replay itself is single-threaded, where the async
// pool is stat-for-stat identical to the synchronous one, so the tables
// stay comparable.
func instrumentedReplays(db *experiment.Database, setNames, polNames []string, fracs []float64, seed int64, eventsPath string, window int, comp buffer.Composition, tracer *tracing.Tracer, shadowPols []string, shadowLadder []float64, shadowSample int) error {
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
				var sinks []obs.Sink
				if jsonl != nil {
					jsonl.Mark(label)
					sinks = append(sinks, jsonl)
				}
				var wt *obs.WindowTracker
				if window > 0 {
					wt = obs.NewWindowTracker(window, 1<<16)
					sinks = append(sinks, wt)
				}
				var bank *shadow.Bank
				if len(shadowPols) > 0 {
					specs := shadow.Specs(polName, frames, shadowPols, shadowLadder)
					bank, err = shadow.NewBank(specs, core.Resolver, window)
					if err != nil {
						return fmt.Errorf("instrumented replay %s: %w", label, err)
					}
					// The replay is single-threaded and offline, so the bank
					// hangs directly off the tee — no async ring needed.
					sinks = append(sinks, obs.NewSamplingSink(bank, shadowSample))
				}
				pool, err := comp.Build(db.Store, fac.New, frames)
				if err != nil {
					return fmt.Errorf("instrumented replay %s: %w", label, err)
				}
				pool.SetSink(obs.Tee(sinks...))
				if tp, ok := pool.(interface{ SetTracer(*tracing.Tracer) }); ok {
					tp.SetTracer(tracer)
				}
				if _, err := trace.ReplayOn(tr, pool); err != nil {
					return fmt.Errorf("instrumented replay %s: %w", label, err)
				}
				if c, ok := pool.(interface{ Close() error }); ok {
					if err := c.Close(); err != nil {
						return fmt.Errorf("instrumented replay %s: close: %w", label, err)
					}
				}
				if bank != nil {
					fmt.Printf("%-24s shadow regret %+.4f (real hit ratio %.3f over %d events):\n",
						label, bank.Regret(), bank.RealHitRatio(), bank.RealRequests())
					for _, st := range bank.Stats() {
						fmt.Printf("    %-10s %6d frames  hit ratio %.3f  window %.3f\n",
							st.Policy, st.Capacity, st.HitRatio, st.WindowHitRatio)
					}
				}
				if wt != nil {
					fmt.Printf("%-24s windowed hit ratio (n=%d):", label, wt.WindowSize())
					for _, r := range wt.HitRatios() {
						fmt.Printf(" %.3f", r)
					}
					if cur := wt.Current(); cur.Requests > 0 {
						fmt.Printf(" [%.3f]", cur.HitRatio())
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

// formatLadder renders capacity multipliers in the form parseLadder
// reads; the -shadow-ladder default is shadow.DefaultLadder through it.
func formatLadder(ladder []float64) string {
	parts := make([]string, len(ladder))
	for i, v := range ladder {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// parseLadder parses comma-separated capacity multipliers, ignoring
// malformed or non-positive entries.
func parseLadder(s string) []float64 {
	var out []float64
	for _, part := range splitCSV(s) {
		if v, err := strconv.ParseFloat(part, 64); err == nil && v > 0 {
			out = append(out, v)
		}
	}
	return out
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
