package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/shadow"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/queryset"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/trace"
)

// spec is one workload: a closed loop of `workers` goroutines, each
// issuing its next operation when the previous one returns, over one
// pool composition on one store. ops is the size of one round.
type spec struct {
	name     string
	why      string
	stream   string // query set on the read database; "" = the update mix
	ops      int
	pool     string // buffer.ParseComposition spec
	fits     bool   // cache holds the whole database (else 4.7 % of it)
	file     bool   // FileStore (else MemStore)
	workers  int
	observed bool // bufserve's sinks, tracer and contention profiler attached
}

// workloads are normative: names, streams and compositions are what
// later changes claim against. Round sizes are constants, sized to about
// a quarter of a second on a 2-core box (a run's timings come from the
// fastest fifth of its rounds, so it wants many), not calibrated at run
// time, so the counts of the single-worker workloads repeat exactly.
var workloads = []spec{
	{name: "point-hit-bare", stream: "INT-P", ops: 100_000, pool: "bare", fits: true, workers: 1,
		why: "100% hits on a bare engine: only rtree traversal, the engine hit path and ASB OnHit; lock, router, async, obs and storage changes must not move it"},
	{name: "point-hit-shared", stream: "INT-P", ops: 100_000, pool: "sharded,shards=2", fits: true, workers: 2,
		why: "the same hits behind Router+Lock with two contending goroutines: latch, routing hash and stats merge dominate"},
	{name: "window-miss-mem", stream: "INT-W-333", ops: 40_000, pool: "bare", workers: 1,
		why: "mostly misses on a free store: engine miss/admit/evict and ASB victim selection; bypasses codec, file I/O and locks"},
	{name: "window-miss-file", stream: "INT-W-333", ops: 3_000, pool: "async,shards=2", file: true, workers: 2,
		why: "the same misses through pread and DecodePage: page format, decode allocation, FileStore and out-of-latch singleflight reads do the work"},
	// One write-back goroutine: with the default two, two writes of one
	// page can land in the wrong order and lose an update (README,
	// caveats) — a failed run about once in five million operations.
	{name: "update-mix", ops: 6_000, pool: "async,shards=2,wbworkers=1", file: true, workers: 1,
		why: "60% window query, 20% insert, 20% delete: Put, dirty eviction, background write-back, Flush, EncodePage and pwrite"},
	{name: "serve-observed", stream: "INT-P", ops: 40_000, pool: "async,shards=2", workers: 1, observed: true,
		why: "bufserve's default stack (counters and latency sink, shadow bank behind an async ring, 1/1024 tracer, contention profiler): the only workload with obs cost on the path"},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale holds every size that the smoke test shrinks. Nothing here is a
// flag: the benchmark has one configuration.
type scale struct {
	objects       int // read database DB1, built by insertion
	updateObjects int // update-mix's own database
	opsDiv        int // divisor of every spec's round size
	warm          int // warm-up queries
	minRounds     int
	setups        int // legs (set-up, rounds, close) per untraced run; setup_s is the median set-up
	ladderRefs    int // page references replayed per ladder pass
	ladderRep     time.Duration
}

var fullScale = scale{
	objects: 24_000, updateObjects: 24_000, opsDiv: 1, warm: 5_000,
	minRounds: 10, setups: 3, ladderRefs: 20_000, ladderRep: 80 * time.Millisecond,
}

const (
	smallFrac   = experiment.LargestFrac // the paper's largest relative buffer, 4.7 %
	policyName  = "ASB"
	queryShare  = 0.6 // update mix
	insertShare = 0.2
	checkEvery  = 16 // update mix: every n-th query is checked by brute force

	ladderQueries = 4000 // the ladder replays the references of at most this many queries
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// result is what the oracle compares: how many entries a query reported
// and the XOR of their object IDs.
type result struct {
	count int
	xor   uint64
}

// op is one generated operation with its expected outcome.
type op struct {
	kind  opKind
	check bool // want is valid
	rect  geom.Rect
	id    uint64 // insert / delete: the object
	want  result
}

// observers is what observe attached to a pool.
type observers struct {
	shadow *live.AsyncSink // nil unless the shadow bank is attached
	tracer *tracing.Tracer // nil unless the tracer is attached
}

// obsParts selects which of bufserve's observers observe attaches; the
// ladder attaches them one at a time.
type obsParts struct{ counters, shadow, tracer bool }

// env is one set-up workload, ready to run rounds.
type env struct {
	spec   *spec
	tree   *rtree.Tree
	mem    *storage.MemStore // the database pages in memory: oracle and ladder read here
	file   *storage.FileStore
	store  storage.Store // what the pool was built on
	rec    *storeRecorder
	pool   buffer.Pool
	frames int
	pages  int
	ops    []op        // read workloads: the round, fixed
	refs   []trace.Ref // traced: the reference string the ladder replays
	gen    *updateGen  // update-mix: generates each round
	obs    *observers
	path   string // page file, when file-backed
}

// frameCount sizes the cache. "Fits" gets a quarter more frames than
// pages: a sharded pool splits capacity evenly but the page hash does
// not split pages evenly, and the workload is defined by never missing.
func frameCount(fits bool, pages int) int {
	if fits {
		return pages + pages/4
	}
	if f := int(smallFrac * float64(pages)); f > 2 {
		return f
	}
	return 2
}

// stopwatch accumulates the set-up time a user would pay; what is the
// harness's own (query generation, the ladder's recording, the oracle)
// runs outside it.
type stopwatch struct{ total time.Duration }

func (s *stopwatch) time(f func() error) error {
	t0 := time.Now()
	err := f()
	s.total += time.Since(t0)
	return err
}

// setup builds the workload's database, store and pool and warms the
// pool. traced wraps the store in a recorder and records the reference
// string the ladder replays.
func setup(sp *spec, sc scale, seed int64, dir string, traced bool) (*env, time.Duration, error) {
	e := &env{spec: sp, path: filepath.Join(dir, sp.name+".pages")}
	var sw stopwatch
	var err error
	if sp.stream == "" {
		err = e.setupUpdate(sc, seed, traced, &sw)
	} else {
		err = e.setupRead(sc, seed, traced, &sw)
	}
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	return e, sw.total, nil
}

func (e *env) setupRead(sc scale, seed int64, traced bool, sw *stopwatch) error {
	var db *experiment.Database
	err := sw.time(func() (err error) {
		// The database seed is fixed so page and frame counts never move;
		// -seed drives the queries only.
		db, err = experiment.Build(1, experiment.Options{Objects: sc.objects, Seed: 1})
		return err
	})
	if err != nil {
		return err
	}
	e.tree, e.mem, e.pages = db.Tree, db.Store, db.Stats.TotalPages()
	qs, err := db.QuerySet(e.spec.stream, e.spec.ops/sc.opsDiv, seed)
	if err != nil {
		return err
	}
	e.ops = make([]op, len(qs.Queries))
	for i, q := range qs.Queries {
		e.ops[i] = op{kind: opQuery, rect: q.Rect}
	}
	if traced {
		if e.refs, err = ladderRefs(e.tree, qs.Queries[:min(len(qs.Queries), ladderQueries)], sc.ladderRefs); err != nil {
			return err
		}
	}
	return sw.time(func() (err error) {
		e.store = e.mem
		if e.spec.file {
			if e.file, err = copyToFile(e.mem, e.path); err != nil {
				return err
			}
			e.store = e.file
		}
		if err := e.buildPool(traced); err != nil {
			return err
		}
		warm := e.ops[:min(len(e.ops), sc.warm)]
		if e.spec.fits {
			// One search of the whole space makes every page resident.
			warm = append([]op{{kind: opQuery, rect: db.Space()}}, warm...)
		}
		return e.warmUp(warm)
	})
}

func (e *env) setupUpdate(sc scale, seed int64, traced bool, sw *stopwatch) error {
	gen := dataset.USMainland(101) // the generator and objects of DB1 at seed 1
	objs := gen.Objects(2, sc.updateObjects)
	err := sw.time(func() (err error) {
		if e.file, err = storage.CreateFileStore(e.path); err != nil {
			return err
		}
		e.store = e.file
		if e.tree, err = rtree.New(e.file, rtree.DefaultParams()); err != nil {
			return err
		}
		// Load through a pool that never evicts, then flush: the tree's
		// mutation path is the buffered one from the first insert.
		load, err := buffer.NewEngine(e.file, core.NewLRU(), 1<<16)
		if err != nil {
			return err
		}
		if err := e.tree.UseBuffer(load, buffer.AccessContext{}); err != nil {
			return err
		}
		for _, o := range objs {
			if err := e.tree.Insert(o.ID, o.MBR); err != nil {
				return err
			}
		}
		if err := load.Flush(); err != nil {
			return err
		}
		e.tree.UnbufferedIO()
		st, err := e.tree.Stats()
		e.pages = st.TotalPages()
		return err
	})
	if err != nil {
		return err
	}
	if traced {
		// Now, while the page file is consistent: once the pool holds
		// dirty pages it is not.
		if e.mem, err = copyToMem(e.file); err != nil {
			return err
		}
		windows := queryset.UniformWindows(gen.Space, ladderQueries, 100, seed)
		if e.refs, err = ladderRefs(e.tree, windows.Queries, sc.ladderRefs); err != nil {
			return err
		}
	}
	e.gen = &updateGen{
		rng: rand.New(rand.NewSource(seed + 7)), seed: seed, gen: gen,
		live: objs, nextID: uint64(len(objs)) + 1,
	}
	ops := e.gen.next(sc.warm)
	return sw.time(func() error {
		if err := e.buildPool(traced); err != nil {
			return err
		}
		return e.warmUp(ops)
	})
}

// warmUp runs ops through the pool on the calling goroutine; results are
// checked for errors only (the oracle has not run yet).
func (e *env) warmUp(ops []op) error {
	w := newWorker(e, e.pool)
	w.run(ops, 0)
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", w.failed, len(ops))
	}
	return nil
}

// buildPool builds the spec's composition over e.store (recorded when
// traced) and attaches the observers.
func (e *env) buildPool(traced bool) error {
	if traced {
		e.rec = &storeRecorder{Store: e.store}
		e.store = e.rec
	}
	comp, err := buffer.ParseComposition(e.spec.pool)
	if err != nil {
		return err
	}
	policy, err := core.FactoryByName(policyName)
	if err != nil {
		return err
	}
	e.frames = frameCount(e.spec.fits, e.pages)
	if e.pool, err = comp.Build(e.store, policy.New, e.frames); err != nil {
		return err
	}
	parts := obsParts{}
	if e.spec.observed {
		parts = obsParts{counters: true, shadow: true, tracer: true}
	}
	e.obs, err = observe(e.pool, e.frames, comp.Shards, parts)
	return err
}

// instrumented is what bufserve asks of a pool before attaching its
// tracer.
type instrumented interface {
	SetTracer(*tracing.Tracer)
	EnableContention(*tracing.Contention)
}

// observe attaches what cmd/bufserve attaches by default, minus the
// HTTP listener: the service's counters-and-latency sink, the shadow
// bank (LRU, SLRU 50 %, ASB, and ASB at 0.5/1/2/4× capacity) behind an
// async ring, a 1-in-1024 span tracer and the contention profiler.
func observe(pool buffer.Pool, frames, shards int, parts obsParts) (*observers, error) {
	svc := live.NewService()
	o := &observers{}
	var sinks []obs.Sink
	if parts.counters {
		sinks = append(sinks, svc.Sink())
	}
	if parts.shadow {
		bank, err := shadow.NewBank(shadow.Specs(policyName, frames, shadow.DefaultPolicies(), shadow.DefaultLadder()), core.Resolver, 0)
		if err != nil {
			return nil, err
		}
		o.shadow = live.NewAsyncSink(bank, 0, svc.Counters.AddDropped)
		sinks = append(sinks, o.shadow)
	}
	pool.SetSink(obs.Tee(sinks...))
	if parts.tracer {
		ip, ok := pool.(instrumented)
		if !ok {
			return nil, fmt.Errorf("pool %T takes no tracer", pool)
		}
		o.tracer = tracing.NewTracer(1024, shards, 256)
		ip.SetTracer(o.tracer)
		ip.EnableContention(tracing.NewContention(shards))
	}
	return o, nil
}

// detach removes the sinks from the pool and stops the shadow ring's
// drain goroutine.
func (o *observers) detach(pool buffer.Pool) error {
	pool.SetSink(nil)
	if o.shadow == nil {
		return nil
	}
	return o.shadow.Close()
}

// closePool detaches the observers, then flushes and closes the pool
// (stopping an async pool's writers). It is the final Flush+Close whose
// writes count towards the workload.
func (e *env) closePool() error {
	if e.pool == nil {
		return nil
	}
	err := e.obs.detach(e.pool)
	if c, ok := e.pool.(interface{ Close() error }); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	} else if ferr := e.pool.Flush(); err == nil {
		err = ferr
	}
	e.pool = nil
	return err
}

// close releases everything the set-up acquired; safe on a half-built
// env. The page file itself goes with the run's temp directory.
func (e *env) close() {
	_ = e.closePool() // error paths only; the success path checked it
	if e.file != nil {
		_ = e.file.Close() // read again only by verifyUpdate, which reopens
		e.file = nil
	}
}

// copyToFile writes every page of src to a new FileStore with identical
// page IDs, so one tree object serves both stores.
func copyToFile(src storage.Store, path string) (*storage.FileStore, error) {
	fs, err := storage.CreateFileStore(path)
	if err != nil {
		return nil, err
	}
	if err := copyPages(fs, src); err != nil {
		fs.Close()
		return nil, err
	}
	return fs, nil
}

func copyToMem(src storage.Store) (*storage.MemStore, error) {
	ms := storage.NewMemStore()
	if err := copyPages(ms, src); err != nil {
		return nil, err
	}
	return ms, nil
}

// copyPages copies pages 1..n; an insertion-built tree never frees a
// page, so the IDs are dense.
func copyPages(dst, src storage.Store) error {
	for id := page.ID(1); int(id) <= src.NumPages(); id++ {
		p, err := src.Read(id)
		if err != nil {
			return err
		}
		if got := dst.Allocate(); got != id {
			return fmt.Errorf("copy: allocated page %d, want %d", got, id)
		}
		if err := dst.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// oracle computes the expected result of every read query straight on
// the in-memory store, bypassing every pool. Until it has run, queries
// are checked for errors only (the warm-up).
func (e *env) oracle() error {
	w := newWorker(e, nil)
	rd := rtree.StoreReader{Store: e.mem}
	for i := range e.ops {
		o := &e.ops[i]
		w.got = result{}
		if err := e.tree.Search(rd, buffer.AccessContext{}, o.rect, w.visit); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		o.want, o.check = w.got, true
	}
	return nil
}

// updateGen generates the update mix one round at a time, tracking the
// live object set so that deletes always find their object, the size
// stays stationary and sampled queries carry a brute-force expectation.
// Generation order equals execution order (one writer), so expectations
// are exact.
type updateGen struct {
	rng    *rand.Rand
	seed   int64
	gen    *dataset.Generator
	live   []dataset.Object
	nextID uint64
	rounds int64
	nQuery int
}

func (g *updateGen) next(n int) []op {
	g.rounds++
	fresh := g.gen.Objects(g.seed+g.rounds*13, n) // more than the round inserts
	space := g.gen.Space
	ops := make([]op, n)
	for i := range ops {
		switch r := g.rng.Float64(); {
		case r < queryShare:
			c := geom.Point{X: space.MinX + g.rng.Float64()*space.Width(), Y: space.MinY + g.rng.Float64()*space.Height()}
			w := geom.RectFromCenter(c, space.Width()/100, space.Height()/100).Intersection(space)
			ops[i] = op{kind: opQuery, rect: w}
			if g.nQuery++; g.nQuery%checkEvery == 0 {
				ops[i].check = true
				for _, o := range g.live {
					if w.Intersects(o.MBR) {
						ops[i].want.count++
						ops[i].want.xor ^= o.ID
					}
				}
			}
		case r < queryShare+insertShare:
			o := fresh[i]
			o.ID = g.nextID
			g.nextID++
			g.live = append(g.live, o)
			ops[i] = op{kind: opInsert, rect: o.MBR, id: o.ID}
		default:
			j := g.rng.Intn(len(g.live))
			o := g.live[j]
			g.live[j] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			ops[i] = op{kind: opDelete, rect: o.MBR, id: o.ID}
		}
	}
	return ops
}

// verifyUpdate is update-mix's closing check, after the pool's final
// Flush+Close: the tree is structurally valid, holds exactly the live
// objects, and — read back from a reopened page file, through no pool —
// still does, so no dirty page was lost.
func (e *env) verifyUpdate() error {
	e.tree.UnbufferedIO()
	if err := e.tree.Validate(); err != nil {
		return err
	}
	if got, want := e.tree.NumObjects(), len(e.gen.live); got != want {
		return fmt.Errorf("tree holds %d objects, want %d", got, want)
	}
	if err := e.file.Close(); err != nil {
		return err
	}
	e.file = nil
	fs, err := storage.OpenFileStore(e.path)
	if err != nil {
		return err
	}
	defer fs.Close()
	var got, want result
	for _, o := range e.gen.live {
		want.count++
		want.xor ^= o.ID
	}
	err = e.tree.Search(rtree.StoreReader{Store: fs}, buffer.AccessContext{}, e.gen.gen.Space, func(en page.Entry) bool {
		got.count++
		got.xor ^= en.ObjID
		return true
	})
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("reopened page file holds %+v, want %+v", got, want)
	}
	return nil
}

// workerCount caps the spec's goroutines at the machine's processors:
// the load generator never asks for more busy goroutines than cores.
func workerCount(sp *spec) int {
	if n := runtime.NumCPU(); sp.workers > n {
		return n
	}
	return sp.workers
}
