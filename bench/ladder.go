package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/queryset"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The ladder prices each layer by difference. The workload's own page
// reference string is replayed, single goroutine, plain Get loop, through
// a series of pools built from public constructors only, each adding
// one layer to a rung below it; a rung's metric is its cost per Get
// minus that rung's. Every rung above the LRU one uses one shard and
// the same policy, so all of them serve the identical hit/miss
// sequence — which the ladder asserts.

// rungSpec describes one rung: a composition, a policy, a store and
// observers.
type rungSpec struct {
	name   string
	pool   string
	policy string
	file   bool
	parts  obsParts
}

var rungSpecs = []rungSpec{
	{name: "lru", pool: "bare", policy: "LRU"},
	{name: "asb", pool: "bare", policy: policyName},
	{name: "locked", pool: "locked", policy: policyName},
	{name: "sharded", pool: "sharded,shards=1", policy: policyName},
	{name: "async", pool: "async,shards=1", policy: policyName},
	{name: "counters", pool: "locked", policy: policyName, parts: obsParts{counters: true}},
	{name: "shadow", pool: "locked", policy: policyName, parts: obsParts{shadow: true}},
	{name: "tracer", pool: "locked", policy: policyName, parts: obsParts{tracer: true}},
	{name: "file", pool: "bare", policy: policyName, file: true},
	{name: "top", pool: "async,shards=1", policy: policyName, parts: obsParts{counters: true, shadow: true, tracer: true}},
}

// ladderDeltas names each reported metric's rung and the rung it is
// measured against ("" = absolute).
var ladderDeltas = []struct{ metric, rung, below string }{
	{"ladder.engine_lru_ns", "lru", ""},
	{"ladder.policy_asb_ns", "asb", "lru"},
	{"ladder.lock_ns", "locked", "asb"},
	{"ladder.router_ns", "sharded", "locked"},
	{"ladder.async_ns", "async", "sharded"},
	{"ladder.counters_ns", "counters", "locked"},
	{"ladder.shadow_ns", "shadow", "locked"},
	{"ladder.tracer1024_ns", "tracer", "locked"},
	{"ladder.filestore_ns", "file", "asb"},
	{"ladder.top_ns", "top", ""},
}

// rung is one built pool and what replaying through it measured.
type rung struct {
	spec   rungSpec
	pool   buffer.Pool
	obs    *observers
	first  buffer.Stats // after the first pass from a cleared pool
	nsGet  float64      // minimum over repetitions
	allocs float64      // mallocs per Get, last repetition
}

func buildRung(rs rungSpec, mem, file storage.Store, frames int) (*rung, error) {
	comp, err := buffer.ParseComposition(rs.pool)
	if err != nil {
		return nil, err
	}
	f, err := core.FactoryByName(rs.policy)
	if err != nil {
		return nil, err
	}
	store := mem
	if rs.file {
		store = file
	}
	pool, err := comp.Build(store, f.New, frames)
	if err != nil {
		return nil, err
	}
	o, err := observe(pool, frames, 1, rs.parts)
	if err != nil {
		return nil, err
	}
	return &rung{spec: rs, pool: pool, obs: o}, nil
}

func (r *rung) close() error {
	err := r.obs.detach(r.pool)
	if c, ok := r.pool.(interface{ Close() error }); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func replay(pool buffer.Pool, refs []trace.Ref) error {
	for _, ref := range refs {
		if _, err := pool.Get(ref.Page, buffer.AccessContext{QueryID: ref.Query}); err != nil {
			return err
		}
	}
	return nil
}

// measure clears the pool, replays once to warm it (recording the
// stats of that pass), then times whole passes for at least d.
func (r *rung) measure(refs []trace.Ref, d time.Duration) error {
	if err := r.pool.Clear(); err != nil {
		return err
	}
	if err := replay(r.pool, refs); err != nil {
		return err
	}
	r.first = r.pool.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	gets := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		if err := replay(r.pool, refs); err != nil {
			return err
		}
		gets += len(refs)
	}
	ns := float64(time.Since(t0)) / float64(gets)
	runtime.ReadMemStats(&ms)
	r.allocs = float64(ms.Mallocs-mallocs) / float64(gets)
	if r.nsGet == 0 || ns < r.nsGet {
		r.nsGet = ns
	}
	return nil
}

// sameSequence fails unless every rung running the workload's policy
// counted the same hits and misses on its first pass: a rung that served
// a different sequence is measuring different work, and its delta means
// nothing.
func sameSequence(rungs []*rung) error {
	var ref *rung
	for _, r := range rungs {
		if r.spec.policy != policyName {
			continue
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.first.Hits != ref.first.Hits || r.first.Misses != ref.first.Misses {
			return fmt.Errorf("ladder: rung %s served %d hits / %d misses, rung %s %d / %d",
				r.spec.name, r.first.Hits, r.first.Misses, ref.spec.name, ref.first.Hits, ref.first.Misses)
		}
	}
	return nil
}

// ladderRefs records the page reference string of the given queries on
// the tree as it stands, cut to limit references. Set-up calls it while
// the tree's store is consistent (update-mix's is not once its pool
// holds dirty pages).
func ladderRefs(tree *rtree.Tree, queries []queryset.Query, limit int) ([]trace.Ref, error) {
	tr, err := trace.Record(tree, queryset.Set{Name: "ladder", Queries: queries})
	if err != nil {
		return nil, err
	}
	if len(tr.Refs) > limit {
		tr.Refs = tr.Refs[:limit]
	}
	return tr.Refs, nil
}

// ladder builds every rung at the workload's cache size, measures them
// interleaved (three repetitions, the minimum counts) and returns the
// ladder and codec metrics.
func ladder(e *env, sc scale) (map[string]float64, error) {
	// The file rung reads its own copy of the pages: update-mix's page
	// file changes under its pool, and page versions steer ASB.
	file, err := copyToFile(e.mem, e.path+".ladder")
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var rungs []*rung
	defer func() {
		for _, r := range rungs {
			_ = r.close() // nothing dirty: the ladder only reads
		}
	}()
	for _, rs := range rungSpecs {
		r, err := buildRung(rs, e.mem, file, e.frames)
		if err != nil {
			return nil, fmt.Errorf("ladder: rung %s: %w", rs.name, err)
		}
		rungs = append(rungs, r)
	}
	for rep := 0; rep < 3; rep++ {
		for _, r := range rungs {
			if err := r.measure(e.refs, sc.ladderRep); err != nil {
				return nil, fmt.Errorf("ladder: rung %s: %w", r.spec.name, err)
			}
		}
	}
	if err := sameSequence(rungs); err != nil {
		return nil, err
	}
	ns := map[string]float64{"": 0}
	out := map[string]float64{}
	for _, r := range rungs {
		ns[r.spec.name] = r.nsGet
		if r.spec.name == "top" {
			out["ladder.allocs_per_get"] = r.allocs
		}
	}
	for _, d := range ladderDeltas {
		out[d.metric] = ns[d.rung] - ns[d.below]
	}
	if err := codec(e.mem, out); err != nil {
		return nil, err
	}
	return out, nil
}

// codec times EncodePage and DecodePage over every page of the database
// and computes the page file's space amplification: bytes on disk per
// 48-byte entry stored.
func codec(mem *storage.MemStore, out map[string]float64) error {
	n, entries := mem.NumPages(), 0
	pages := make([]*page.Page, n)
	bufs := make([]byte, n*storage.PageSize)
	for i := range pages {
		p, err := mem.Read(page.ID(i + 1))
		if err != nil {
			return err
		}
		pages[i] = p
		entries += len(p.Entries)
	}
	t0 := time.Now()
	for i, p := range pages {
		if err := storage.EncodePage(p, bufs[i*storage.PageSize:]); err != nil {
			return err
		}
	}
	out["storage.encode_ns"] = float64(time.Since(t0)) / float64(n)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0 = time.Now()
	for i := range pages {
		if _, err := storage.DecodePage(bufs[i*storage.PageSize:]); err != nil {
			return err
		}
	}
	out["storage.decode_ns"] = float64(time.Since(t0)) / float64(n)
	runtime.ReadMemStats(&ms)
	out["storage.decode_allocs"] = float64(ms.Mallocs-mallocs) / float64(n)
	out["storage.space_amp"] = ratio(float64(n)*storage.PageSize, 48*float64(entries))
	return nil
}
