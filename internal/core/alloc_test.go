package core_test

// Allocation regression gate for the intrusive frame-table substrate:
// after warmup, serving requests — hits, misses with eviction, and
// writes — must perform ZERO heap allocations per operation for every
// standard policy. Frames recycle through the manager's arena, policy
// structures ride the frames' embedded link words, and LRU-K's history
// lives in flat slabs, so nothing on the request path escapes to the
// heap. The plain go test ./... runs TestPolicyZeroAlloc (the race
// detector's instrumentation allocates, so the test skips itself under
// it).
//
// BenchmarkPolicyOpsReference is the old-implementation twin of
// BenchmarkPolicyOps; benchstat over the pair quantifies the refactor.

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
)

// allocFactories is the gate's policy set: the standard registry plus
// FIFO, each paired with its reference twin by name in refFactories.
func allocFactories() []core.Factory {
	return append(core.StandardFactories(),
		core.Factory{Name: "FIFO", New: func(int) buffer.Policy { return core.NewFIFO() }})
}

// TestPolicyZeroAlloc pins the tentpole invariant: steady-state
// Get/Put/victim-select allocates nothing, for every standard policy.
func TestPolicyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		capacity = 64
		numPages = 256
		traceLen = 4096
	)
	seq, specs := benchAccesses(numPages, traceLen)
	for _, f := range allocFactories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			store := buildStore(t, specs)
			m := mustEngine(t, store, f.New(capacity), capacity)
			// Pre-read every page once so measured Puts reuse these
			// pointers; Clone during measurement would be a false positive.
			puts := make([]*page.Page, numPages+1)
			for id := 1; id <= numPages; id++ {
				p, err := store.Read(page.ID(id))
				if err != nil {
					t.Fatal(err)
				}
				puts[id] = p.Clone()
			}
			step := func(i int) {
				a := seq[i%len(seq)]
				ctx := buffer.AccessContext{QueryID: a.query}
				if i%16 == 7 {
					if err := m.Put(puts[int(a.id)], ctx); err != nil {
						t.Fatal(err)
					}
					return
				}
				if _, err := m.Get(a.id, ctx); err != nil {
					t.Fatal(err)
				}
			}
			// Warmup: fill the buffer, grow LRU-K's history slabs and every
			// map to its steady-state size, populate the arena free-list.
			for i := 0; i < traceLen; i++ {
				step(i)
			}
			pos := 0
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < 64; i++ {
					step(pos)
					pos++
				}
			})
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per 64 steady-state requests, want 0", f.Name, avg)
			}
		})
	}
}

// BenchmarkPolicyOpsReference is BenchmarkPolicyOps run against the
// preserved old-style (container/list-era) policy implementations, kept
// so benchstat can compare the intrusive substrate against its baseline:
//
//	go test -bench 'PolicyOps$' -benchmem ./internal/core/ > new.txt
//	go test -bench PolicyOpsReference -benchmem ./internal/core/ > old.txt
func BenchmarkPolicyOpsReference(b *testing.B) {
	const numPages = 2048
	seq, specs := benchAccesses(numPages, 1<<16)
	for _, f := range core.StandardFactories() {
		ref, ok := refFactories(256)[f.Name]
		if !ok {
			b.Fatalf("no reference implementation for %q", f.Name)
		}
		b.Run(f.Name, func(b *testing.B) {
			s := buildStoreB(b, specs)
			m, err := buffer.NewEngine(s, ref, 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := seq[i%len(seq)]
				if _, err := m.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
