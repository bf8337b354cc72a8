package core_test

// Committed golden digests of what the buffer reports about a fixed
// replay: the ordered event stream of every named policy on a bare
// engine and on a two-shard shared pool, and the victim-select spans of
// every policy on a bare engine with every request sampled. The reference
// oracle (refpolicy_test.go) checks which pages a policy evicts; this
// file pins what is said about each eviction — reason, criterion, rank,
// shard — so a change to the reporting path shows up as a changed line
// in testdata/events.golden. Regenerate with
//
//	go test ./internal/core/ -run TestGoldenEventDigests -update

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/events.golden from this run")

const goldenPath = "testdata/events.golden"

// digestSink hashes every event, every field, in arrival order. The
// digests were taken when an overflow hit was reported as two events, a
// promotion carrying the page and the §4.2 signal and then the
// adaptation, before Ref existed (TestAdaptRefCountsRequests pins it); an
// Adapt still hashes as that pair of lines, byte for byte, so the
// digests show that the one event says all the two did, in their order.
type digestSink struct{ h hash.Hash64 }

func (d digestSink) Request(e obs.RequestEvent)   { fmt.Fprintf(d.h, "R %+v\n", e) }
func (d digestSink) Eviction(e obs.EvictionEvent) { fmt.Fprintf(d.h, "E %+v\n", e) }
func (d digestSink) Adapt(e obs.AdaptEvent) {
	fmt.Fprintf(d.h, "P %+v\n", struct {
		Page                     page.ID
		BetterSpatial, BetterLRU int
		Shard                    int
	}{e.Page, e.BetterSpatial, e.BetterLRU, e.Shard})
	fmt.Fprintf(d.h, "A {OldC:%d NewC:%d Shard:%d}\n", e.OldC, e.NewC, e.Shard)
}

// goldenReplay drives a fixed-seed mix of Gets, Puts and Fix/Unfix pairs
// (held pins make victim scans skip frames, so ranks above 0 occur)
// through the pool: 60 pages into 12 frames, so most misses evict.
func goldenReplay(t *testing.T, pool buffer.Pool, store *storage.MemStore) {
	t.Helper()
	const numPages, steps, maxPins = 60, 2500, 5
	rng := rand.New(rand.NewSource(20020325))
	var pinned []page.ID
	for i := 0; i < steps; i++ {
		id := page.ID(1 + rng.Intn(numPages))
		if rng.Intn(2) == 0 {
			id = page.ID(1 + rng.Intn(numPages/6))
		}
		ctx := buffer.AccessContext{QueryID: uint64(i / 5)}
		var err error
		switch r := rng.Intn(100); {
		case r < 10:
			var p *page.Page
			if p, err = store.Read(id); err == nil {
				err = pool.Put(p.Clone(), ctx)
			}
		case r < 24 && len(pinned) < maxPins:
			if _, err = pool.Fix(id, ctx); err == nil {
				pinned = append(pinned, id)
			}
		case r < 34 && len(pinned) > 0:
			err = pool.Unfix(pinned[0])
			pinned = pinned[1:]
		default:
			_, err = pool.Get(id, ctx)
		}
		if err != nil {
			t.Fatalf("step %d page %d: %v", i, id, err)
		}
	}
}

func TestGoldenEventDigests(t *testing.T) {
	const numPages, capacity = 60, 12
	var lines []string
	add := func(kind, policy, layout string, h hash.Hash64) {
		lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%016x", kind, policy, layout, h.Sum64()))
	}
	for _, f := range shardableFactories() {
		for _, layout := range []string{"bare", "sharded,shards=2"} {
			store := buildStore(t, conformanceSpecs(numPages, 7))
			pool := buildComposition(t, layout, store, f, capacity)
			h := fnv.New64a()
			pool.SetSink(digestSink{h})
			goldenReplay(t, pool, store)
			if pool.Stats().Evictions == 0 {
				t.Fatalf("%s on %s: replay evicted nothing", f.Name, layout)
			}
			add("events", f.Name, layout, h)
		}
	}
	for _, f := range shardableFactories() {
		store := buildStore(t, conformanceSpecs(numPages, 7))
		m := mustEngine(t, store, f.New(capacity), capacity)
		tr := tracing.NewTracer(1, 1, 4096)
		m.SetTracer(tr)
		goldenReplay(t, m, store)
		h := fnv.New64a()
		traces := tr.Traces(0) // ordered by start time; order by ID so equal clock readings cannot reorder
		sort.Slice(traces, func(i, j int) bool { return traces[i][0].Trace < traces[j][0].Trace })
		for _, trc := range traces {
			for _, sp := range trc {
				if sp.Kind == tracing.KindVictim {
					fmt.Fprintf(h, "%s %s %v %d %d %d %t\n",
						sp.Reason, sp.CritKind, sp.CritWin, sp.Rank, sp.Slot, sp.Page, sp.Err)
				}
			}
		}
		add("spans", f.Name, "bare", h)
	}

	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < len(lines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
