package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
)

// worker is one closed-loop client: it issues its next operation when
// the previous one returns, times each call, and checks each result.
type worker struct {
	env    *env
	rd     buffer.Pool   // what the tree reads through: the pool or its recorder
	rec    *poolRecorder // non-nil in traced rounds
	visit  func(page.Entry) bool
	got    result
	lat    []int64 // per-op latency, ns
	failed int
	found  uint64 // entries reported
}

func newWorker(e *env, rd buffer.Pool) *worker {
	w := &worker{env: e, rd: rd}
	// One closure per worker, not per query: the harness allocates
	// nothing inside the timed loop.
	w.visit = func(en page.Entry) bool {
		w.got.count++
		w.got.xor ^= en.ObjID
		return true
	}
	return w
}

// run executes ops in order. Query IDs are idBase+index+1: unique across
// rounds, increasing, never reused.
func (w *worker) run(ops []op, idBase uint64) {
	tree := w.env.tree
	if cap(w.lat) < len(ops) {
		w.lat = make([]int64, len(ops))
	}
	w.lat = w.lat[:len(ops)]
	if w.env.gen != nil {
		if err := tree.UseBuffer(w.rd, buffer.AccessContext{}); err != nil {
			w.failed += len(ops)
			return
		}
	}
	for i := range ops {
		o := &ops[i]
		ctx := buffer.AccessContext{QueryID: idBase + uint64(i) + 1}
		var err error
		ok := true
		t0 := now()
		if w.rec != nil {
			w.rec.beginOp(uint32(ctx.QueryID), t0)
		}
		switch o.kind {
		case opQuery:
			w.got = result{}
			err = tree.Search(w.rd, ctx, o.rect, w.visit)
			w.found += uint64(w.got.count)
			ok = !o.check || w.got == o.want
		case opInsert:
			if err = tree.UseBufferContext(ctx); err == nil {
				err = tree.Insert(o.id, o.rect)
			}
		case opDelete:
			if err = tree.UseBufferContext(ctx); err == nil {
				ok, err = tree.Delete(o.id, o.rect)
			}
		}
		t1 := now()
		if w.rec != nil {
			w.rec.endOp(t1)
		}
		w.lat[i] = t1 - t0
		if err != nil || !ok {
			w.failed++
		}
	}
}

// counters is everything read through public Stats() calls at a round
// boundary.
type counters struct {
	buf     buffer.Stats
	store   storage.Stats
	mallocs uint64
}

func (e *env) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{buf: e.pool.Stats(), store: e.store.Stats(), mallocs: ms.Mallocs}
}

// round is what one round measured: raw values, kept for latest.json.
type round struct {
	Ops       int     `json:"ops"`
	WallS     float64 `json:"wall_s"`
	P50Us     float64 `json:"p50_us"`
	TailUs    float64 `json:"tail_us"`
	TailQ     float64 `json:"tail_quantile"`
	Samples   int     `json:"samples"`
	Failed    int     `json:"failed"`
	Found     uint64  `json:"results"`
	Requests  uint64  `json:"requests"`
	Hits      uint64  `json:"hits"`
	Evictions uint64  `json:"evictions"`
	WriteBack uint64  `json:"writebacks"`
	Coalesced uint64  `json:"coalesced"`
	Reads     uint64  `json:"store_reads"`
	Writes    uint64  `json:"store_writes"`
	SeqReads  uint64  `json:"store_seq_reads"`
	Mallocs   uint64  `json:"mallocs"`

	trace traceMetrics
}

// runner runs rounds of one set-up workload.
type runner struct {
	env     *env
	sc      scale
	workers []*worker
	recs    []*poolRecorder
	sorted  []int64
	n       int   // rounds run, traced or not
	err     error // first broken invariant
}

func newRunner(e *env, sc scale) *runner {
	r := &runner{env: e, sc: sc}
	for i := 0; i < workerCount(e.spec); i++ {
		r.workers = append(r.workers, newWorker(e, e.pool))
		r.recs = append(r.recs, &poolRecorder{Pool: e.pool, worker: int8(i)})
	}
	return r
}

// spansPerOp sizes the trace slabs from the rounds already run.
func spansPerOp(done []round) float64 {
	var req, ops float64
	for _, d := range done {
		req += float64(d.Requests)
		ops += float64(d.Ops)
	}
	// Requests counts gets; inserts and deletes add at most as many puts.
	return 2*ratio(req, ops) + 2
}

// round runs one round — the spec's ops split evenly over the workers —
// and checks the engine's counting invariants from outside. traced
// rounds run a quarter of the ops through the recorders.
func (r *runner) round(traced bool, done []round) round {
	e := r.env
	n := e.spec.ops / r.sc.opsDiv
	if traced {
		n /= 4
	}
	var ops []op
	if e.gen != nil {
		ops = e.gen.next(n) // exactly the ops that run: it tracks the live set
	} else {
		ops = e.ops[:n]
	}
	r.n++
	per := len(ops) / len(r.workers)
	slab := int(spansPerOp(done)*float64(per)*1.2) + 64 // a fifth to spare
	for i, w := range r.workers {
		w.rd, w.rec, w.failed, w.found = e.pool, nil, 0, 0
		if traced {
			r.recs[i].reset(slab)
			w.rd, w.rec = r.recs[i], r.recs[i]
		}
	}
	if traced {
		e.rec.reset(slab * len(r.workers))
		e.rec.on.Store(true)
	}

	before := e.snapshot()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, w := range r.workers {
		wg.Add(1)
		go func(w *worker, part []op, base uint64) {
			defer wg.Done()
			w.run(part, base)
		}(w, ops[i*per:(i+1)*per], uint64(r.n)<<32|uint64(i*per))
	}
	wg.Wait()
	wall := time.Since(t0)
	after := e.snapshot()
	if traced {
		e.rec.on.Store(false)
	}

	out := round{
		Ops: per * len(r.workers), WallS: wall.Seconds(),
		Requests:  after.buf.Requests - before.buf.Requests,
		Hits:      after.buf.Hits - before.buf.Hits,
		Evictions: after.buf.Evictions - before.buf.Evictions,
		WriteBack: after.buf.WriteBacks - before.buf.WriteBacks,
		Coalesced: after.buf.Coalesced - before.buf.Coalesced,
		Reads:     after.store.Reads - before.store.Reads,
		Writes:    after.store.Writes - before.store.Writes,
		SeqReads:  after.store.Sequential - before.store.Sequential,
		Mallocs:   after.mallocs - before.mallocs,
	}
	r.sorted = r.sorted[:0]
	for _, w := range r.workers {
		out.Failed += w.failed
		out.Found += w.found
		r.sorted = append(r.sorted, w.lat...)
	}
	slices.Sort(r.sorted)
	out.Samples = len(r.sorted)
	out.TailQ = tailQuantile(out.Samples)
	out.P50Us = float64(quantile(r.sorted, 0.5)) / 1e3
	out.TailUs = float64(quantile(r.sorted, out.TailQ)) / 1e3

	if b := after.buf; b.Requests != b.Hits+b.Misses {
		r.broke("requests %d != hits %d + misses %d", b.Requests, b.Hits, b.Misses)
	}
	if dr := after.buf.DiskReads() - before.buf.DiskReads(); dr != out.Reads {
		r.broke("store saw %d reads, pool reports %d", out.Reads, dr)
	}
	if traced {
		r.trace(&out)
	}
	return out
}

// broke records a broken invariant; the run reports the first.
func (r *runner) broke(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("round %d: "+format, append([]any{r.n}, args...)...)
	}
}

// trace parents and sums the round's spans.
func (r *runner) trace(out *round) {
	workers := r.spans()
	dropped := 0
	for _, rec := range r.recs {
		dropped += rec.dropped
	}
	store, d := r.env.rec.recorded()
	if dropped+d > 0 {
		r.broke("%d spans did not fit their slab", dropped+d)
	}
	attach(workers, store)
	t := summarize(workers, store)
	out.trace = traceMetrics{
		opSelfNs: medianNs(t.opSelf), hitNs: medianNs(t.hit), missSelfNs: medianNs(t.missSelf), putSelfNs: medianNs(t.putSelf),
		readNs: medianNs(t.read), writeNs: medianNs(t.write),
		bufferShare:  ratio(float64(t.bufferSelfNs), float64(t.opNs)),
		storageShare: ratio(float64(t.parentedStoreNs), float64(t.opNs)),
		bgWriteShare: ratio(float64(t.bgWriteNs), out.WallS*1e9),
	}
}

// traceMetrics are one traced round's T metrics; a run reports the
// median over its traced rounds.
type traceMetrics struct {
	opSelfNs, hitNs, missSelfNs, putSelfNs, readNs, writeNs float64
	bufferShare, storageShare, bgWriteShare                 float64
}

// tracedMinRounds is the least a traced run runs of each kind of round.
const tracedMinRounds = 2

// rounds runs rounds until d has elapsed, and at least min of them.
func (r *runner) rounds(d time.Duration, min int, traced bool, done []round) []round {
	var out []round
	for t0 := time.Now(); len(out) < min || time.Since(t0) < d; {
		out = append(out, r.round(traced, done))
	}
	return out
}

// outcome is one (workload, trace mode) run: the protocol line's fields
// plus the record kept in latest.json.
type outcome struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	SpreadPct map[string]float64 `json:"round_spread_pct,omitempty"` // timing metrics of an untraced run
	SetupsS   []float64          `json:"setups_s"`
	Rounds    []round            `json:"rounds"`
	Traces    []round            `json:"traced_rounds,omitempty"`
	Frames    int                `json:"frames"`
	Pages     int                `json:"pages"`
	Workers   int                `json:"workers"`
	PhaseS    map[string]float64 `json:"phase_wall_s"`
}

// runWorkload measures one workload for about the given time. An
// untraced run is sc.setups legs, each a fresh set-up followed by its share
// of the measuring time and the closing checks, so that both the set-ups
// and the rounds sample the whole of the run's wall time and a slow phase
// of the host shorter than the run reaches only some of them. It reports
// the end-to-end metrics. A traced run is one leg: half its time untraced
// (counters, tail latency and the reference throughput), half traced, then
// the ladder and the codec micro-loop.
func runWorkload(sp *spec, sc scale, seed int64, measure time.Duration, traced bool, outDir string) (*outcome, error) {
	dir, err := os.MkdirTemp(outDir, "pages-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &outcome{Workload: sp.name, Traced: traced, Metrics: map[string]float64{}, PhaseS: map[string]float64{}}
	heap0 := liveHeap() // what earlier runs in this process left behind
	phase := time.Now()
	lap := func(name string) {
		res.PhaseS[name] += time.Since(phase).Seconds()
		phase = time.Now()
	}

	legs := sc.setups
	if traced {
		legs = 1
	}
	var (
		e        *env
		checked  []op // the read queries with the oracle's results: the same in every leg
		lad      map[string]float64
		heapMB   float64
		flush    time.Duration
		closing  uint64
		firstErr error
	)
	defer func() {
		if e != nil {
			e.close() // error paths only: a finished leg has closed its own
		}
	}()
	for i := 0; i < legs; i++ {
		var took time.Duration
		if e, took, err = setup(sp, sc, seed, dir, traced); err != nil {
			return nil, err
		}
		res.SetupsS = append(res.SetupsS, took.Seconds())
		if e.gen == nil {
			if checked == nil {
				if err := e.oracle(); err != nil {
					return nil, err
				}
				checked = e.ops
			}
			e.ops = checked
		}
		res.Frames, res.Pages, res.Workers = e.frames, e.pages, workerCount(sp)
		lap("setup")

		if traced {
			if lad, err = ladder(e, sc); err != nil {
				return nil, err
			}
			lap("ladder")
		}

		r := newRunner(e, sc)
		runtime.GC()
		if traced {
			res.Rounds = r.rounds(measure/2, tracedMinRounds, false, nil)
			lap("rounds")
			res.Traces = r.rounds(measure/2, tracedMinRounds, true, res.Rounds)
			lap("traced_rounds")
			// The last traced round's spans are still in the slabs.
			store, _ := e.rec.recorded()
			if err := writeTrace(filepath.Join(outDir, "trace."+sp.name+".jsonl"), r.spans(), store, 2000); err != nil {
				return nil, err
			}
		} else {
			res.Rounds = append(res.Rounds, r.rounds(measure/time.Duration(legs), sc.minRounds, false, nil)...)
			lap("rounds")
		}

		// Live heap is the system's: database, store, pool and observers
		// of one leg, the last, with the harness's own buffers let go.
		if !traced && i == legs-1 {
			r.workers, r.recs, r.sorted, e.ops, checked = nil, nil, nil, nil, nil
			heapMB = float64(liveHeap()-heap0) / (1 << 20)
		}

		// The final Flush+Close belongs to the workload: its writes are the
		// dirty pages the rounds left behind.
		before := e.store.Stats()
		t0 := time.Now()
		err = e.closePool()
		flush = time.Since(t0)
		if err == nil && e.gen != nil {
			err = e.verifyUpdate()
		}
		if err == nil {
			err = r.err
		}
		if firstErr == nil {
			firstErr = err
		}
		closing = e.store.Stats().Writes - before.Writes
		e.close()
		lap("close")
	}

	for _, rd := range append(append([]round(nil), res.Rounds...), res.Traces...) {
		res.Attempted += rd.Ops
		res.Failed += rd.Failed
	}
	res.Correct = firstErr == nil && res.Failed == 0
	if firstErr != nil {
		res.Error = firstErr.Error()
	}
	if traced {
		layerMetrics(res, e, lad, flush, closing)
	} else {
		userMetrics(res, sc, heapMB)
	}
	return res, nil
}

// liveHeap returns the bytes of heap still reachable after collection.
// It collects twice: the first cycle only demotes sync.Pool contents to
// the victim cache and queues finalizers (closed page files).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// spans returns each worker's slab of the last traced round.
func (r *runner) spans() [][]span {
	out := make([][]span, len(r.recs))
	for i, rec := range r.recs {
		out[i] = rec.spans
	}
	return out
}

// column extracts one value per round (or per run).
func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// sum adds one counter over rounds.
func sum(rs []round, f func(round) uint64) float64 {
	var t uint64
	for _, r := range rs {
		t += f(r)
	}
	return float64(t)
}

func opsOf(r round) uint64 { return uint64(r.Ops) }

// userMetrics fills the end-to-end metrics. Timings are read from the
// run's quiet rounds (see quiet). Counts cover the first minRounds rounds,
// which every run completes whatever the machine's speed, so on a
// single-worker synchronous workload they repeat exactly.
func userMetrics(res *outcome, sc scale, heapMB float64) {
	rs := res.Rounds
	fixed := rs[:sc.minRounds]
	m := res.Metrics
	rate, p50 := column(rs, roundRate), column(rs, func(r round) float64 { return r.P50Us })
	m["queries_per_s"], m["query_p50_us"] = quiet(rate, +1), quiet(p50, -1)
	res.SpreadPct = map[string]float64{"queries_per_s": spreadPct(rate), "query_p50_us": spreadPct(p50)}
	m["hit_ratio"] = ratio(sum(fixed, func(r round) uint64 { return r.Hits }), sum(fixed, func(r round) uint64 { return r.Requests }))
	m["allocs_per_query"] = ratio(sum(rs, func(r round) uint64 { return r.Mallocs }), sum(rs, opsOf))
	m["live_heap_mb"] = heapMB
	m["setup_s"] = median(res.SetupsS)
}

func roundRate(r round) float64 { return float64(r.Ops) / r.WallS }

// layerMetrics fills the per-layer metrics from the counters of the
// untraced rounds (C), the span sums of the traced rounds (T), the
// ladder (L) and the codec micro-loop (M).
func layerMetrics(res *outcome, e *env, lad map[string]float64, flush time.Duration, closingWrites uint64) {
	rs, ts := res.Rounds, res.Traces
	m := res.Metrics
	// Counts cover the rounds every traced run completes, as in
	// userMetrics.
	fixed := rs[:tracedMinRounds]
	ops := sum(fixed, opsOf)
	per := func(f func(round) uint64) float64 { return ratio(sum(fixed, f), ops) }

	m["rtree.call_p99_us"] = median(column(rs, func(r round) float64 { return r.TailUs }))
	m["rtree.pages_per_query"] = per(func(r round) uint64 { return r.Requests })
	m["rtree.results_per_query"] = per(func(r round) uint64 { return r.Found })
	m["buffer.hit_ratio"] = ratio(sum(fixed, func(r round) uint64 { return r.Hits }), sum(fixed, func(r round) uint64 { return r.Requests }))
	m["buffer.evictions_per_query"] = per(func(r round) uint64 { return r.Evictions })
	m["buffer.writebacks_per_query"] = per(func(r round) uint64 { return r.WriteBack })
	m["buffer.coalesced_per_query"] = per(func(r round) uint64 { return r.Coalesced })
	m["storage.reads_per_query"] = per(func(r round) uint64 { return r.Reads })
	// The closing flush's writes belong to the ops of every round run,
	// traced ones included.
	allOps := sum(rs, opsOf) + sum(ts, opsOf)
	m["storage.writes_per_query"] = ratio(sum(rs, func(r round) uint64 { return r.Writes })+sum(ts, func(r round) uint64 { return r.Writes })+float64(closingWrites), allOps)
	m["storage.seq_read_ratio"] = ratio(sum(fixed, func(r round) uint64 { return r.SeqReads }), sum(fixed, func(r round) uint64 { return r.Reads }))
	m["buffer.flush_ms"] = float64(flush) / 1e6

	tm := func(f func(traceMetrics) float64) float64 {
		return median(column(ts, func(r round) float64 { return f(r.trace) }))
	}
	m["rtree.call_self_us"] = tm(func(t traceMetrics) float64 { return t.opSelfNs }) / 1e3
	m["buffer.get_hit_ns"] = tm(func(t traceMetrics) float64 { return t.hitNs })
	m["buffer.get_miss_self_ns"] = tm(func(t traceMetrics) float64 { return t.missSelfNs })
	m["buffer.put_self_ns"] = tm(func(t traceMetrics) float64 { return t.putSelfNs })
	m["buffer.self_share"] = tm(func(t traceMetrics) float64 { return t.bufferShare })
	m["storage.read_ns"] = tm(func(t traceMetrics) float64 { return t.readNs })
	m["storage.write_ns"] = tm(func(t traceMetrics) float64 { return t.writeNs })
	m["storage.share"] = tm(func(t traceMetrics) float64 { return t.storageShare })
	m["storage.bg_write_share"] = tm(func(t traceMetrics) float64 { return t.bgWriteShare })

	// Medians: traced rounds are a quarter the size, so their fastest
	// fifth is not comparable with that of the untraced ones.
	plain, withTrace := median(column(rs, roundRate)), median(column(ts, roundRate))
	m["bench.trace_overhead_pct"] = 100 * ratio(plain-withTrace, plain)
	m["bench.round_spread_pct"] = spreadPct(column(rs, roundRate))

	// Zero on the five workloads that run with no observers attached.
	m["obs.shadow_dropped_share"], m["obs.traces_sampled"] = 0, 0
	if sh := e.obs.shadow; sh != nil {
		m["obs.shadow_dropped_share"] = ratio(float64(sh.Dropped()), float64(sh.Dropped()+sh.Delivered()))
		m["obs.traces_sampled"] = float64(e.obs.tracer.Seen() / uint64(e.obs.tracer.SampleEvery()))
	}
	for k, v := range lad {
		m[k] = v
	}
}
