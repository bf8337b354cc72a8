package experiment

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/trace"
)

// TestShardedReplayEquivalence replays a recorded reference string of a
// real query set through every composition that routes like a bare
// engine — locked, single-shard sharded, single-shard async — and
// through the bare engine itself: the layer stack must not change a
// single counter. This is the end-to-end version of the unit-level
// equivalence tests — same database build, same trace cache, same
// policies as the experiments (the replay is read-only, so the async
// equivalence is unconditional).
func TestShardedReplayEquivalence(t *testing.T) {
	db := tinyDB(t, 1)
	tr, err := db.Trace("U-P", 1)
	if err != nil {
		t.Fatal(err)
	}
	frames := db.Frames(0.01)

	for _, name := range []string{"LRU", "SLRU 50%", "ASB"} {
		f, err := core.FactoryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			m, err := buffer.NewEngine(db.Store, f.New(frames), frames)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trace.ReplayOn(tr, m)
			if err != nil {
				t.Fatal(err)
			}
			wantSet := make(map[page.ID]bool)
			for _, id := range m.ResidentIDs() {
				wantSet[id] = true
			}

			for _, spec := range []string{"locked", "sharded,shards=1", "async,shards=1"} {
				comp, err := buffer.ParseComposition(spec)
				if err != nil {
					t.Fatal(err)
				}
				pool, err := comp.Build(db.Store, f.New, frames)
				if err != nil {
					t.Fatal(err)
				}
				got, err := trace.ReplayOn(tr, pool)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: stats diverged:\nbare engine %+v\ncomposition %+v", spec, want, got)
				}
				var resident []page.ID
				pool.View(0, func(e *buffer.Engine) { resident = e.ResidentIDs() }) // one shard each
				if len(resident) != len(wantSet) {
					t.Fatalf("%s: resident count %d, bare engine %d", spec, len(resident), len(wantSet))
				}
				for _, id := range resident {
					if !wantSet[id] {
						t.Errorf("%s: resident sets differ on page %d", spec, id)
					}
				}
				if c, ok := pool.(interface{ Close() error }); ok {
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestShardedReplayPartitioned replays the same trace through
// multi-shard compositions: counters must stay internally consistent
// (every reference accounted once) even though the partitioned resident
// set can legitimately change the hit count relative to one big buffer,
// and the sharded and async layouts must agree with each other (same
// routing, read-only replay).
func TestShardedReplayPartitioned(t *testing.T) {
	db := tinyDB(t, 1)
	tr, err := db.Trace("U-P", 1)
	if err != nil {
		t.Fatal(err)
	}
	frames := db.Frames(0.01)
	f, err := core.FactoryByName("ASB")
	if err != nil {
		t.Fatal(err)
	}

	stats := make(map[string]buffer.Stats)
	for _, spec := range []string{"sharded,shards=4", "async,shards=4"} {
		comp, err := buffer.ParseComposition(spec)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := comp.Build(db.Store, f.New, frames)
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.ReplayOn(tr, pool)
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != uint64(tr.Len()) {
			t.Errorf("%s: requests = %d, want %d", spec, st.Requests, tr.Len())
		}
		if st.Hits+st.Misses != st.Requests {
			t.Errorf("%s: stats inconsistent: %+v", spec, st)
		}
		var merged buffer.Stats
		for i := 0; i < pool.Shards(); i++ {
			pool.View(i, func(e *buffer.Engine) { merged.Add(e.Stats()) })
		}
		if merged != st {
			t.Errorf("%s: per-shard merge %+v != Stats() %+v", spec, merged, st)
		}
		if pool.Len() > frames {
			t.Errorf("%s: capacity exceeded: %d > %d", spec, pool.Len(), frames)
		}
		if c, ok := pool.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
		stats[spec] = st
	}
	if stats["sharded,shards=4"] != stats["async,shards=4"] {
		t.Errorf("sharded vs async diverged on a read-only replay:\nsharded %+v\nasync   %+v",
			stats["sharded,shards=4"], stats["async,shards=4"])
	}
}
