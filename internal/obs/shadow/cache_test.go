package shadow_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/shadow"
	"repro/internal/page"
)

// mapCache is a ghost cache the way shadow.Cache kept one before it
// looked its frames up in the engine's frame table: the same protocol
// over a Go map and heap-allocated frames. It is the reference of
// TestCacheMatchesMapReference.
type mapCache struct {
	policy   buffer.Policy
	capacity int
	frames   map[page.ID]*buffer.Frame
	clock    uint64
}

func (c *mapCache) ref(id page.ID, meta page.Meta, queryID uint64) bool {
	c.clock++
	now := c.clock
	ctx := buffer.AccessContext{QueryID: queryID}
	if f, ok := c.frames[id]; ok {
		c.policy.OnHit(f, now, ctx)
		f.LastUse = now
		return true
	}
	if len(c.frames) >= c.capacity {
		v := c.policy.Victim(ctx).Frame
		delete(c.frames, v.Meta.ID)
		c.policy.OnEvict(v)
	}
	meta.ID = id
	f := &buffer.Frame{Slot: -1, Meta: meta, LastUse: now}
	c.frames[id] = f
	c.policy.OnAdmit(f, now, ctx)
	return false
}

// collidingIDs returns n distinct page IDs that the frame table of a
// cache of the given capacity sends to at most homes home slots — its
// Fibonacci hash over 2^bits.Len(2·capacity) slots — so that the probe
// runs are long and a deletion has entries to shift back.
func collidingIDs(capacity, homes, n int) []page.ID {
	shift := 64 - bits.Len(uint(2*capacity))
	var ids []page.ID
	for id := page.ID(1); len(ids) < n; id++ {
		if int(uint64(id)*0x9E3779B97F4A7C15>>shift) < homes {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestCacheMatchesMapReference drives shadow.Cache and mapCache, each
// with its own instance of the same policy, through one random
// reference string — a hot set of colliding IDs, a scattered tail, and
// phases of all hits and all misses — and wants the same outcome for
// every reference and the same resident set at each phase end.
// Capacities run from the 2-frame minimum to 300.
func TestCacheMatchesMapReference(t *testing.T) {
	const phases, phaseRefs = 12, 1500
	for _, polName := range []string{"LRU", "SLRU 50%", "LRU-2", "ASB"} {
		for _, capacity := range []int{2, 3, 7, 37, 128, 300} {
			t.Run(fmt.Sprintf("%s/%d", polName, capacity), func(t *testing.T) {
				factory, err := core.Resolver(polName)
				if err != nil {
					t.Fatal(err)
				}
				cache := shadow.NewCache(polName, factory(capacity), capacity, 0)
				ref := &mapCache{policy: factory(capacity), capacity: capacity, frames: map[page.ID]*buffer.Frame{}}

				rng := rand.New(rand.NewSource(int64(capacity)))
				hot := collidingIDs(capacity, 3, capacity/2+2)
				ids := append(collidingIDs(capacity, 2*capacity, 4*capacity), hot...)
				meta := func(id page.ID) page.Meta {
					x, y := float64(id%97), float64(id%89)
					return page.Meta{ID: id, Type: page.TypeData, MBR: geom.NewRect(x, y, x+float64(id%13)+1, y+float64(id%7)+1), NumEntries: int(id % 50)}
				}
				step := 0
				for phase := 0; phase < phases; phase++ {
					resident := cache.ResidentIDs()
					for i := 0; i < phaseRefs; i++ {
						var id page.ID
						switch phase % 3 {
						case 0: // churn: hot set and tail mixed
							if rng.Intn(3) == 0 {
								id = ids[rng.Intn(len(ids))]
							} else {
								id = hot[rng.Intn(len(hot))]
							}
						case 1: // hits: the residents over and over
							id = resident[rng.Intn(len(resident))]
						case 2: // misses: a scan through the tail
							id = ids[(i*7+phase)%len(ids)]
						}
						step++
						q := uint64(step / 6)
						got, want := cache.Ref(id, meta(id), q), ref.ref(id, meta(id), q)
						if got != want {
							t.Fatalf("phase %d, reference %d (page %d): table cache hit=%v, map reference hit=%v", phase, i, id, got, want)
						}
					}
					resident = cache.ResidentIDs()
					var want []page.ID
					for id := range ref.frames {
						want = append(want, id)
					}
					slices.Sort(resident)
					slices.Sort(want)
					if !slices.Equal(resident, want) {
						t.Fatalf("phase %d: resident %v, map reference %v", phase, resident, want)
					}
				}
				if cache.Hits()+cache.Misses() != uint64(step) {
					t.Errorf("%d hits + %d misses, want %d references", cache.Hits(), cache.Misses(), step)
				}
			})
		}
	}
}

// BenchmarkBankRequest is the drainer's cost per delivered request
// behind bufserve's default bank (LRU, SLRU 50 % and ASB at 37 frames,
// ASB at 0.5/1/2/4 ×): half the references go to 30 hot pages, half
// to 800.
func BenchmarkBankRequest(b *testing.B) {
	bank, err := shadow.NewBank(shadow.Specs("ASB", 37, shadow.DefaultPolicies(), shadow.DefaultLadder()), core.Resolver, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	events := make([]obs.RequestEvent, 1<<16)
	for i := range events {
		id := page.ID(1 + rng.Intn(800))
		if rng.Intn(2) == 0 {
			id = page.ID(1 + rng.Intn(30))
		}
		x := float64(id % 97)
		events[i] = obs.RequestEvent{Page: id, QueryID: uint64(i / 6), Hit: i%2 == 0,
			Meta: page.Meta{ID: id, Type: page.TypeData, MBR: geom.NewRect(x, x, x+3, x+4), NumEntries: int(id % 40), EntryAreaSum: x}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Request(events[i&(len(events)-1)])
	}
}
