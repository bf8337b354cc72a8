package repro

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// removedNames are names and paths that were deleted and must not come
// back; CHANGES.md has the history of each. Each entry is a regular
// expression, matched against every line of every Go file of both
// modules, README.md and DESIGN.md, except this file.
var removedNames = []string{
	`NewManager`, `NewSyncManager`, `NewShardedPool`, `NewAsyncShardedPool`,
	`ReplayWithSink`, `ReplayTraced`, `buffer\.Manager\b`, `SyncManager`,
	`ShardedPool`, `tracing\.Slot\b`, `SlotSetter`, `SlotTarget`,
	`SetTraceSlot`, `TraceSlot\(`, `storage\.Traced`, `tracedStore`,
	`obs\.Target\b`, `lastRank`, `splitCSV`, `formatLadder`, `parseLadder`,
	`NearestNeighbors`, `SearchContained`, `SetAux`, `AsyncConfig`,
	`TagShard`, `SinkSetter`, `ASBProbe`, `FreezeCand`, `atoiSafe`,
	`ShardPolicy`, `ShardLen`, `\bShardStats\b`, `LiveCandidateSize`,
	`LiveOverflowLen`, `publishGauges`, `SumASBGauges`, `AddShardASBGauges`,
	`summedASB`, `candLast`, `trace\.Load`, `SetObserver`, `currentObserver`,
	`WindowTracker`, `WindowStats`, `handleVars`, `varsPayload`, `BulkLoad`,
	`packLevel`, `core/intrusive`, `frameHooks`,
	`intrusive\.(List|Heap|Hooks|NewList|NewHeap)`, `\bLockedEngine\b`,
	`\bAsyncPool\b`, `buffer\.Lock\(`, `buffer\.Async\(`, `\bNewRouter\b`,
	`OverflowPromotionEvent`, `\.OverflowPromotion\(`, `\bBroadcaster\b`,
	`CTrajSample`, `events/ctraj`, `events/shadow`,
	`overflow_promotions_total`, `type PinLevels`, `writeCTrajectory`,
	`Coalesced--`, `-ctraj`, `timedMultiSink`, `\bLatencyRecorder\b`,
	`RecordLatency`, `obs\.Histogram\b`, `\bhitSample\b`, `untimedHits`,
	`type Spatial struct`, `CritLose`, `crit_lose`, `Signal[R]egistry`,
	`registry[S]ink`, `service[S]ink`, `\bbump\(`,
}

// TestArchitectureRules holds the rules of the code's layering that no
// compiler checks. The text rules read the files repoFiles lists; the
// dependency rule reads the load TestNoUnusedExports type-checks (goList
// caches it).
func TestArchitectureRules(t *testing.T) {
	all := repoFiles(t)
	// goFiles lists the Go files among all that keep accepts.
	goFiles := func(keep func(path string) bool) []string {
		var paths []string
		for _, path := range all {
			if strings.HasSuffix(path, ".go") && keep(path) {
				paths = append(paths, path)
			}
		}
		return paths
	}
	nonTest := func(path string) bool { return !strings.HasSuffix(path, "_test.go") }

	// grep reports every line of paths that one of patterns matches. It
	// runs the patterns one by one: most have a literal prefix, which
	// regexp finds by a byte search, while their alternation has none.
	grep := func(t *testing.T, patterns []string, paths []string) {
		t.Helper()
		res := make([]*regexp.Regexp, len(patterns))
		for i, p := range patterns {
			res[i] = regexp.MustCompile(p)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, re := range res {
				for _, m := range re.FindAllIndex(src, -1) {
					t.Errorf("%s:%d: %s", path, 1+bytes.Count(src[:m[0]], []byte("\n")), src[m[0]:m[1]])
				}
			}
		}
	}

	t.Run("removed names stay removed", func(t *testing.T) {
		paths := goFiles(func(path string) bool { return path != "rules_test.go" })
		if len(paths) < 100 {
			t.Fatalf("the repository lists %d Go files: the walk is broken", len(paths))
		}
		grep(t, removedNames, append(paths, "README.md", "DESIGN.md"))
	})

	// A policy answers Victim with a buffer.Choice; the engine alone
	// (Engine.evictOne) turns it into the victim-select span and the
	// Eviction event, so every policy is reported the same way. What ASB
	// reports of its own goes through the request's AccessContext to the
	// engine's sink: no policy holds, takes or defaults one. Nor does a
	// policy publish its state for a scraper: it is read under the
	// shard's latch through Pool.View, so no policy needs an atomic.
	t.Run("policies hold no sink and no gauges", func(t *testing.T) {
		paths := goFiles(func(path string) bool { return nonTest(path) && strings.HasPrefix(path, "internal/core/") })
		grep(t, []string{`\.Eviction\(`, `KindVictim`, `obs\.Sink`, `NopSink`, `SetSink`, `sync/atomic`}, paths)
	})

	// What a command wants to know of a pool it asks through the Pool
	// interface (Shards, View) or cmd/internal/cli's capability helpers,
	// never through an inline interface assertion or an assertion to a
	// concrete buffer type: what a pool says about itself, its write-back
	// queue included, AddPoolGauges registers.
	t.Run("commands make no structural assertions on pools", func(t *testing.T) {
		var paths []string
		for _, path := range all {
			if strings.HasPrefix(path, "cmd/bufserve/") || strings.HasPrefix(path, "cmd/spatialbench/") {
				paths = append(paths, path)
			}
		}
		grep(t, []string{`\.\(interface ?\{`, `\.\(\*buffer\.`}, paths)
	})

	// The entry region of a v2 page is the memory of a []page.Entry on a
	// little-endian host, and codec.go copies it through an unsafe.Slice
	// byte view (TestEntryLayout pins the layout). No other non-test file
	// may import unsafe.
	t.Run("unsafe stays in the page codec", func(t *testing.T) {
		var importers []string
		fset := token.NewFileSet()
		for _, path := range goFiles(nonTest) {
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
					importers = append(importers, path)
				}
			}
		}
		if want := []string{"internal/storage/codec.go"}; !slices.Equal(importers, want) {
			t.Errorf("the non-test files importing unsafe are %v, want %v", importers, want)
		}
	})

	// Store calls are bracketed with spans by the engine (readPage /
	// writePage in internal/buffer), not by a wrapper in the storage
	// package, which therefore stays free of the tracer.
	t.Run("storage does not depend on tracing", func(t *testing.T) {
		pkgs := goList(t, ".", "./...")
		i := slices.IndexFunc(pkgs, func(p *listedPackage) bool { return p.ImportPath == "repro/internal/storage" })
		if i < 0 {
			t.Fatal("the load has no repro/internal/storage")
		}
		if slices.Contains(pkgs[i].Deps, "repro/internal/obs/tracing") {
			t.Error("repro/internal/storage depends on repro/internal/obs/tracing")
		}
	})
}
