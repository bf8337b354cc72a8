// Command bufserve runs a spatial buffer as a long-lived daemon and
// serves its live metrics over HTTP. It builds one of the synthetic
// databases, records the page-reference trace of a query set, and then
// replays that trace in a loop from several worker goroutines through a
// shared buffer pool — by default an async page-hashed sharded pool
// with one shard per CPU — a steady-state workload to watch through
// /metrics and the dashboard. The pool is selected by the -pool
// composition spec (e.g. "locked", "sharded,shards=4",
// "async,shards=8,wbworkers=2"). With a sharded layout, /metrics
// additionally exposes per-shard residency and ASB gauges labeled
// shard="i"; with the async layout, the write-back queue's gauges.
//
// Start it and look around:
//
//	bufserve -addr :8080 -objects 20000 -set U-P -policy ASB
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics | grep spatialbuf_
//	open http://localhost:8080/               # dashboard polling /metrics
//
// The HTTP server (including /debug/pprof) comes up before the database
// build starts, so /healthz answers immediately; /metrics serves zeros
// until the workload is running. Event capture to disk is optional:
// -events FILE attaches a JSONL sink behind the async ring (-ring) with
// 1-in-N request sampling (-sample); ring overflow is dropped, counted
// and exported as spatialbuf_events_dropped_total rather than ever
// blocking the request path.
//
// Request-scoped tracing is on by default at 1-in-1024 sampling
// (-trace-sample, 0 disables): sampled requests record a span tree
// (Get → victim-select / asb-adapt / store.Read ...) into per-shard
// rings of -trace-buf completed traces, served as Chrome trace-event
// JSON (load in Perfetto) at /debug/trace?n=100.
// Tracing also enables the shard-contention profiler: per-shard lock
// wait, queue depth and acquisition counts under
// spatialbuf_shard_lock_* on /metrics.
//
// The shadow-cache profiler is on by default: metadata-only ghost
// caches replay the live request stream against the -shadow what-if
// policies at the real capacity and against the real policy at the
// -shadow-ladder capacity multipliers (the online miss-ratio curve),
// exported as spatialbuf_shadow_* gauges on /metrics, which the
// dashboard's counters table lists. -shadow "" turns it off;
// -shadow-sample N trades fidelity for event-rate headroom.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/tracing"
)

type config struct {
	addr     string
	db       cli.DB
	set      string
	policy   string
	frac     float64
	workers  int
	pool     string
	duration time.Duration
	loops    int
	rate     int
	events   string
	sample   int
	ring     int

	traceSample int
	traceBuf    int

	shadow cli.Shadow
}

func main() { cli.Main("bufserve", declare) }

// declare declares bufserve's flags on fs.
func declare(fs *flag.FlagSet) (*obs.ProfileFlags, func() error) {
	cfg := newConfig(fs)
	return nil, func() error { return run(cfg) }
}

// newConfig declares bufserve's flags on fs, into the config it returns.
func newConfig(fs *flag.FlagSet) *config {
	cfg := new(config)
	fs.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address for metrics, dashboard and pprof")
	cfg.db.Register(fs, "database number (1 or 2)", "objects in the database (0 = default scale)")
	fs.StringVar(&cfg.set, "set", "U-P", "query set to replay (e.g. U-P, INT-W-33)")
	fs.StringVar(&cfg.policy, "policy", "ASB", "replacement policy: a registry name (LRU, ASB, ...) or a parameterized spec like LRU-K:4, SLRU:EA:0.25, SPATIAL:EM, ASB:A:0.3, PIN:2")
	fs.Float64Var(&cfg.frac, "frac", experiment.LargestFrac, "buffer size as a fraction of the database")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "concurrent replay goroutines")
	fs.StringVar(&cfg.pool, "pool", "async", "pool composition spec: layout[,shards=N][,wbworkers=N] with layout locked|sharded|async (shards=0 or omitted = one per CPU; bare is rejected: /metrics reads the pool under its latch)")
	fs.DurationVar(&cfg.duration, "duration", 0, "stop after this long (0 = run until signalled)")
	fs.IntVar(&cfg.loops, "loops", 0, "trace replays per worker (0 = unbounded)")
	fs.IntVar(&cfg.rate, "rate", 0, "approximate total requests/second across workers (0 = unthrottled)")
	fs.StringVar(&cfg.events, "events", "", "also capture the event stream as JSONL to this file")
	fs.IntVar(&cfg.sample, "sample", 64, "with -events: keep 1 in N request events (evictions etc. always kept)")
	fs.IntVar(&cfg.ring, "ring", live.DefaultRingCapacity, "with -events: async ring capacity in events")
	fs.IntVar(&cfg.traceSample, "trace-sample", 1024, "record a span trace for 1 in N requests, served at /debug/trace (0 = tracing off)")
	fs.IntVar(&cfg.traceBuf, "trace-buf", 256, "completed traces retained per shard ring")
	cfg.shadow.Register(fs)
	return cfg
}

// run serves until SIGINT or SIGTERM, the -duration or the end of the
// -loops.
func run(cfg *config) error {
	ln, comp, err := listen(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}
	return serve(ctx, cfg, comp, ln)
}

// listen checks cfg and opens its listener. Everything the flags can get
// wrong fails here, before the listener opens or any database is built;
// the listener opens synchronously, so that a bad -addr fails fast.
func listen(cfg *config) (net.Listener, buffer.Composition, error) {
	var comp buffer.Composition
	if cfg.workers < 1 {
		return nil, comp, fmt.Errorf("bad -workers value %d (want an integer ≥ 1)", cfg.workers)
	}
	if !(cfg.frac > 0) || math.IsInf(cfg.frac, 0) {
		return nil, comp, fmt.Errorf("bad -frac value %v (want a number > 0)", cfg.frac)
	}
	if cfg.duration < 0 {
		return nil, comp, fmt.Errorf("bad -duration value %v (want a duration ≥ 0)", cfg.duration)
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"loops", cfg.loops, 0}, {"rate", cfg.rate, 0}, {"trace-sample", cfg.traceSample, 0},
		{"ring", cfg.ring, 0}, {"trace-buf", cfg.traceBuf, 1}, {"sample", cfg.sample, 1},
	} {
		if f.val < f.min {
			return nil, comp, fmt.Errorf("bad -%s value %d (want an integer ≥ %d)", f.name, f.val, f.min)
		}
	}
	if err := cfg.db.Parse(); err != nil {
		return nil, comp, err
	}
	if err := cfg.shadow.Parse(); err != nil {
		return nil, comp, err
	}
	comp, err := buffer.ParseComposition(cfg.pool)
	if err != nil {
		return nil, comp, err
	}
	if comp.Layout == buffer.LayoutBare {
		// A bare engine has no latch, and /metrics reads its counters and
		// histograms under one (Pool.View): the scraper would race the
		// workers.
		return nil, comp, fmt.Errorf("-pool bare has no latch for the /metrics scrape; use -pool locked")
	}
	ln, err := net.Listen("tcp", cfg.addr)
	return ln, comp, err
}

// serve serves /metrics, the dashboard, /debug/trace and pprof on ln,
// builds the database and replays its trace through the comp pool until
// ctx is done or the -loops end. /healthz answers while the (potentially
// long) database build runs.
func serve(ctx context.Context, cfg *config, comp buffer.Composition, ln net.Listener) error {
	ctx, stop := context.WithCancel(ctx)
	defer stop()

	// The tracer is sized by the composition's shard count before the
	// pool exists so /debug/trace can be mounted before serving starts;
	// a pool that clamps to fewer shards simply leaves trailing rings
	// empty.
	var tracer *tracing.Tracer
	if cfg.traceSample > 0 {
		tracer = tracing.NewTracer(cfg.traceSample, comp.ShardCount(), cfg.traceBuf)
	}

	svc := live.NewService()
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("/debug/trace", tracing.Handler(tracer))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux}
	defer srv.Close() // stops serving on an early return; after Shutdown, a no-op
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("bufserve: serving metrics on http://%s/\n", ln.Addr())

	db, err := cfg.db.Get()
	if err != nil {
		return err
	}
	tr, err := db.Trace(cfg.set, cfg.db.Seed)
	if err != nil {
		return err
	}
	fac, err := core.FactoryByName(cfg.policy)
	if err != nil {
		return err
	}
	frames := db.Frames(cfg.frac)
	pool, err := comp.Build(db.Store, fac.New, frames)
	if err != nil {
		return err
	}
	defer cli.Close(pool)
	shards := pool.Shards() // may have been clamped for tiny buffers
	svc.AddPoolGauges(pool)
	if tracer != nil {
		cont := tracing.NewContention(shards)
		cli.Trace(pool, tracer, cont)
		svc.AddContentionGauges(cont)
		svc.AddTracerGauges(tracer)
	}
	svc.AddGauge("spatialbuf_capacity_pages", "Total buffer capacity in frames.",
		func() float64 { return float64(frames) })
	svc.AddGauge("spatialbuf_workers", "Replay worker goroutines.",
		func() float64 { return float64(cfg.workers) })

	var sinks []obs.Sink
	var async *live.AsyncSink
	if cfg.events != "" {
		f, err := os.Create(cfg.events)
		if err != nil {
			return err
		}
		jsonl := obs.NewJSONLSinkCloser(f)
		jsonl.Mark(fmt.Sprintf("bufserve %s/%s/%.4f workers=%d", cfg.set, cfg.policy, cfg.frac, cfg.workers))
		// The ring makes the single-goroutine JSONL sink safe under many
		// producers and keeps file I/O off the request path; sampling
		// keeps the file size proportional to interesting events.
		async = live.NewAsyncSink(obs.NewSamplingSink(jsonl, cfg.sample), cfg.ring, svc.Counters.AddDropped)
		sinks = append(sinks, async)
		svc.AddAsyncSinkGauges(async)
	}
	var shadowAsync *live.AsyncSink
	if cfg.shadow.Enabled() {
		bank, err := cfg.shadow.Bank(cfg.policy, frames)
		if err != nil {
			return err
		}
		// The bank replays every request through all its ghost caches
		// under one mutex, so it lives behind its own async ring: a
		// request pays a slab append under a short mutex (a sampled one
		// only, if -shadow-sample > 1), the slab one channel send per 64
		// requests, never the simulation cost; evictions and adaptations,
		// which the bank does not read, are not copied at all.
		shadowAsync = live.NewAsyncSink(bank, cfg.ring, svc.Counters.AddDropped)
		sinks = append(sinks, cfg.shadow.Sampled(shadowAsync))
		svc.AddShadowGauges(bank)
		fmt.Printf("bufserve: shadow profiler: %d ghost caches (policies %s at %d frames; %s ladder %s)\n",
			bank.Len(), cfg.shadow.Policies, frames, cfg.policy, cfg.shadow.Ladder)
	}
	pool.SetSink(obs.Tee(sinks...))

	fmt.Printf("bufserve: %s, %d-page buffer (%s, %.1f%%, pool %s, %d shards), replaying %s (%d refs) on %d workers\n",
		db.Name, frames, cfg.policy, cfg.frac*100, comp, shards, cfg.set, tr.Len(), cfg.workers)

	var wg sync.WaitGroup
	var interval time.Duration
	if cfg.rate > 0 {
		interval = time.Duration(int64(cfg.workers) * int64(time.Second) / int64(cfg.rate))
	}
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct query-ID ranges per worker and per loop keep the
			// spatial locality of each replayed query intact without two
			// workers ever sharing a query ID.
			var tick *time.Ticker
			if interval > 0 {
				tick = time.NewTicker(interval)
				defer tick.Stop()
			}
			for loop := 0; cfg.loops == 0 || loop < cfg.loops; loop++ {
				base := uint64(w)<<48 | uint64(loop)<<24
				for _, ref := range tr.Refs {
					if ctx.Err() != nil {
						return
					}
					if tick != nil {
						select {
						case <-tick.C:
						case <-ctx.Done():
							return
						}
					}
					if _, err := pool.Get(ref.Page, buffer.AccessContext{QueryID: base + ref.Query}); err != nil {
						fmt.Fprintf(os.Stderr, "bufserve: worker %d: %v\n", w, err)
						return
					}
				}
			}
		}(w)
	}

	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-ctx.Done():
	case <-workersDone: // finite -loops finished early
	case err := <-serveErr:
		stop()
		<-workersDone
		return fmt.Errorf("http server: %w", err)
	}
	stop()
	<-workersDone

	// Shutdown order matters: detach producers, then drain the ring,
	// then stop serving (so a final scrape still sees the full counts).
	pool.SetSink(nil)
	if async != nil {
		if err := async.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bufserve: closing event sink: %v\n", err)
		}
		fmt.Printf("bufserve: event capture: %d delivered, %d dropped\n", async.Delivered(), async.Dropped())
	}
	if shadowAsync != nil {
		if err := shadowAsync.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bufserve: closing shadow sink: %v\n", err)
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := pool.Stats()
	byReason := ""
	st.ByReason.Each(func(reason string, n uint64) { byReason += fmt.Sprintf(" %s=%d", reason, n) })
	fmt.Printf("bufserve: final counters: %d requests, %d hits (hit ratio %.4f), %d misses (%d coalesced), %d evictions (by reason:%s); %d adaptations (grow %d, shrink %d, hold %d), %d events dropped\n",
		st.Requests, st.Hits, st.HitRatio(), st.Misses, st.Coalesced, st.Evictions, byReason,
		st.Adaptations(), st.AdaptGrow, st.AdaptShrink, st.AdaptHold, svc.Counters.Dropped())
	return nil
}
