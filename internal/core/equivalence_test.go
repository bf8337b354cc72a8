package core_test

// Property test for the intrusive-substrate refactor: every standard
// policy, rebuilt on the intrusive frame words, must be step-for-step
// indistinguishable from its old container/list-era implementation
// (preserved in refpolicy_test.go). Random traces with mixed Get / Put /
// Fix–Unfix traffic replay through both; after EVERY access the hit/miss
// outcome and the exact resident set must match, which subsumes
// comparing eviction sequences (any divergent victim changes the
// resident set at the access that evicted it).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/storage"
)

// equivPages builds a diverse spec set: directory and data pages of the
// SAM at several levels plus object pages, with varied areas so every
// criterion discriminates. Kept under the LRU-K retention floor (64) so
// the bounded history of the new LRUK never reclaims a record the
// unbounded reference would have kept.
func equivPages(rng *rand.Rand, n int) []pageSpec {
	specs := make([]pageSpec, n)
	for i := range specs {
		area := float64(rng.Intn(900) + 1)
		switch rng.Intn(4) {
		case 0:
			specs[i] = pageSpec{typ: page.TypeDirectory, level: 1 + rng.Intn(2), area: area}
		case 1:
			specs[i] = pageSpec{typ: page.TypeObject, level: 0, area: area}
		default:
			specs[i] = pageSpec{typ: page.TypeData, level: 0, area: area}
		}
	}
	return specs
}

// step drives one trace operation against a manager and reports whether
// it missed. fixed tracks the manager's currently pinned IDs.
func equivStep(t *testing.T, m *buffer.Engine, s *storage.MemStore, op, opArg int,
	id page.ID, ctx buffer.AccessContext, fixed map[page.ID]bool) bool {
	t.Helper()
	before := m.Stats().Misses
	switch op {
	case 0: // Get
		if _, err := m.Get(id, ctx); err != nil {
			t.Fatalf("get %d: %v", id, err)
		}
	case 1: // Put (re-install the stored content, exercising OnUpdate)
		p, err := s.Read(id)
		if err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		if err := m.Put(p.Clone(), ctx); err != nil {
			t.Fatalf("put %d: %v", id, err)
		}
	case 2: // Fix, remembered for a later Unfix
		if _, err := m.Fix(id, ctx); err != nil {
			t.Fatalf("fix %d: %v", id, err)
		}
		fixed[id] = true
	case 3: // Unfix one previously fixed page (opArg selects it)
		ids := make([]page.ID, 0, len(fixed))
		for fid := range fixed {
			ids = append(ids, fid)
		}
		if len(ids) == 0 {
			return false
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fid := ids[opArg%len(ids)]
		if err := m.Unfix(fid); err != nil {
			t.Fatalf("unfix %d: %v", fid, err)
		}
		delete(fixed, fid)
	case 4: // Clear (cold restart, exercising Reset and arena recycling)
		if err := m.Clear(); err != nil {
			t.Fatalf("clear: %v", err)
		}
		clear(fixed)
	}
	return m.Stats().Misses > before
}

func sortedResident(m *buffer.Engine) []page.ID {
	ids := m.ResidentIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestIntrusiveMatchesReference replays random traces through each
// standard policy (plus FIFO) and its preserved old-style reference
// implementation, on managers over the same store, asserting identical
// behavior at every step.
func TestIntrusiveMatchesReference(t *testing.T) {
	const (
		numPages = 60
		traceLen = 3000
	)
	for _, capacity := range []int{4, 9, 16} {
		refs := refFactories(capacity)
		for _, fac := range append(core.StandardFactories(),
			core.Factory{Name: "FIFO", New: func(int) buffer.Policy { return core.NewFIFO() }}) {
			ref, ok := refs[fac.Name]
			if !ok {
				t.Fatalf("no reference implementation for %q", fac.Name)
			}
			t.Run(fmt.Sprintf("%s/cap%d", fac.Name, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)*1000 + int64(len(fac.Name))))
				store := buildStore(t, equivPages(rng, numPages))
				mNew := mustEngine(t, store, fac.New(capacity), capacity)
				mRef := mustEngine(t, store, ref, capacity)
				fixedNew := map[page.ID]bool{}
				fixedRef := map[page.ID]bool{}

				query := uint64(1)
				for i := 0; i < traceLen; i++ {
					if rng.Intn(4) == 0 {
						query++
					}
					// Skewed page choice: half the traffic on a hot eighth.
					var id page.ID
					if rng.Intn(2) == 0 {
						id = page.ID(1 + rng.Intn(numPages/8))
					} else {
						id = page.ID(1 + rng.Intn(numPages))
					}
					// Mostly reads; occasional writes, pins and clears. Cap
					// concurrent pins below capacity so eviction stays possible.
					op := 0
					switch r := rng.Intn(100); {
					case r < 70:
						op = 0
					case r < 80:
						op = 1
					case r < 87:
						op = 2
						if len(fixedNew) >= capacity/2 || fixedNew[id] {
							op = 0
						}
					case r < 94:
						op = 3
					default:
						if rng.Intn(8) == 0 {
							op = 4 // rare full Clear
						}
					}
					opArg := rng.Int()
					ctx := buffer.AccessContext{QueryID: query}
					missNew := equivStep(t, mNew, store, op, opArg, id, ctx, fixedNew)
					missRef := equivStep(t, mRef, store, op, opArg, id, ctx, fixedRef)
					if missNew != missRef {
						t.Fatalf("step %d (op %d page %d): intrusive miss=%v, reference miss=%v",
							i, op, id, missNew, missRef)
					}
					gotIDs, wantIDs := sortedResident(mNew), sortedResident(mRef)
					if !idsEqual(gotIDs, wantIDs) {
						t.Fatalf("step %d (op %d page %d): resident sets diverged\nintrusive: %v\nreference: %v",
							i, op, id, gotIDs, wantIDs)
					}
				}
				sNew, sRef := mNew.Stats(), mRef.Stats()
				if sNew != sRef {
					t.Fatalf("final stats diverged: intrusive %+v, reference %+v", sNew, sRef)
				}
			})
		}
	}
}
