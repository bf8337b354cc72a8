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
// shard="i".
//
// Start it and look around:
//
//	bufserve -addr :8080 -objects 20000 -set U-P -policy ASB
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics | grep spatialbuf_
//	curl -N localhost:8080/events/ctraj       # SSE: live c-trajectory
//	open http://localhost:8080/               # dashboard
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
// exported as spatialbuf_shadow_* gauges, streamed at /events/shadow
// (SSE) and rendered as a dashboard panel. -shadow "" turns it off;
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
	cfg := new(config)
	fs.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address for metrics, dashboard and pprof")
	cfg.db.Register(fs, "database number (1 or 2)", "objects in the database (0 = default scale)")
	fs.StringVar(&cfg.set, "set", "U-P", "query set to replay (e.g. U-P, INT-W-33)")
	fs.StringVar(&cfg.policy, "policy", "ASB", "replacement policy: a registry name (LRU, ASB, ...) or a parameterized spec like LRU-K:4, SLRU:EA:0.25, SPATIAL:EM, ASB:A:0.3, PIN:2")
	fs.Float64Var(&cfg.frac, "frac", experiment.LargestFrac, "buffer size as a fraction of the database")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "concurrent replay goroutines")
	fs.StringVar(&cfg.pool, "pool", "async", "pool composition spec: layout[,shards=N][,wbworkers=N][,wbqueue=N] with layout bare|locked|sharded|async (shards=0 or omitted = one per CPU)")
	fs.DurationVar(&cfg.duration, "duration", 0, "stop after this long (0 = run until signalled)")
	fs.IntVar(&cfg.loops, "loops", 0, "trace replays per worker (0 = unbounded)")
	fs.IntVar(&cfg.rate, "rate", 0, "approximate total requests/second across workers (0 = unthrottled)")
	fs.StringVar(&cfg.events, "events", "", "also capture the event stream as JSONL to this file")
	fs.IntVar(&cfg.sample, "sample", 64, "with -events: keep 1 in N request events (evictions etc. always kept)")
	fs.IntVar(&cfg.ring, "ring", live.DefaultRingCapacity, "with -events: async ring capacity in events")
	fs.IntVar(&cfg.traceSample, "trace-sample", 1024, "record a span trace for 1 in N requests, served at /debug/trace (0 = tracing off)")
	fs.IntVar(&cfg.traceBuf, "trace-buf", 256, "completed traces retained per shard ring")
	cfg.shadow.Register(fs)
	return nil, func() error { return run(cfg) }
}

func run(cfg *config) error {
	// Everything the flags can get wrong fails here, before the listener
	// opens or any database is built.
	if cfg.workers < 1 {
		return fmt.Errorf("bad -workers value %d (want an integer ≥ 1)", cfg.workers)
	}
	if !(cfg.frac > 0) || math.IsInf(cfg.frac, 0) {
		return fmt.Errorf("bad -frac value %v (want a number > 0)", cfg.frac)
	}
	if err := cfg.shadow.Parse(); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}

	comp, err := buffer.ParseComposition(cfg.pool)
	if err != nil {
		return err
	}
	if comp.Layout == buffer.LayoutBare && cfg.workers > 1 {
		return fmt.Errorf("-pool bare is single-threaded; use -workers 1 or a locked/sharded/async layout")
	}

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

	// Listen synchronously so a bad -addr fails fast and /healthz is
	// reachable while the (potentially long) database build runs.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
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
	if ap, ok := pool.(*buffer.AsyncPool); ok {
		svc.AddGauge("spatialbuf_writeback_queue_depth", "Pages waiting in the background write-back queue.",
			func() float64 { return float64(ap.Writeback().Depth) })
		svc.AddGauge("spatialbuf_writeback_pending_pages", "Pages queued or mid-write in the write-back machinery.",
			func() float64 { return float64(ap.Writeback().Pending) })
		svc.AddGauge("spatialbuf_writeback_written_total", "Completed background page writes.",
			func() float64 { return float64(ap.Writeback().Written) })
		svc.AddGauge("spatialbuf_writeback_coalesced_total", "Write-backs absorbed by an already-queued entry for the same page.",
			func() float64 { return float64(ap.Writeback().Coalesced) })
		svc.AddGauge("spatialbuf_writeback_fallbacks_total", "Evictions written synchronously because the queue was full.",
			func() float64 { return float64(ap.Writeback().Fallbacks) })
		svc.AddGauge("spatialbuf_writeback_queue_capacity", "Write-back queue capacity in pages.",
			func() float64 { return float64(ap.Writeback().QueueCap) })
		svc.AddGauge("spatialbuf_writeback_canceled_total", "Queued write-backs canceled because the page was re-admitted before its write ran.",
			func() float64 { return float64(ap.Writeback().Canceled) })
		svc.AddGauge("spatialbuf_writeback_errors_total", "Background page writes that failed.",
			func() float64 { return float64(ap.Writeback().Errors) })
		svc.AddGauge("spatialbuf_inflight_reads", "Physical reads currently in flight across all shards (singleflight leaders).",
			func() float64 { return float64(ap.InflightReads()) })
	}
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

	sinks := []obs.Sink{svc.Sink()}
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
		// The bank replays every event through all its ghost caches under
		// one mutex, so it lives behind its own async ring: the request
		// path pays one non-blocking channel send (before sampling, if
		// -shadow-sample > 1), never the simulation cost.
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
	st, c := pool.Stats(), svc.Counters.Snapshot()
	byReason := ""
	c.ByReason.Each(func(reason string, n uint64) { byReason += fmt.Sprintf(" %s=%d", reason, n) })
	fmt.Printf("bufserve: final counters: %d requests, %d hits (hit ratio %.4f), %d misses (%d coalesced), %d evictions (by reason:%s); %d overflow promotions, %d adaptations (grow %d, shrink %d, hold %d), %d events dropped\n",
		st.Requests, st.Hits, st.HitRatio(), st.Misses, st.Coalesced, st.Evictions, byReason,
		c.Promotions, c.Adaptations, c.AdaptGrow, c.AdaptShrink, c.AdaptHold, c.Dropped)
	return nil
}
