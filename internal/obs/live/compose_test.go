package live

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
)

// composeCollector records everything the drainer delivers. It is only
// ever touched by the AsyncSink's drainer goroutine, so plain fields
// suffice — that single-consumer guarantee is part of what this test
// exercises under -race.
type composeCollector struct {
	reqs   []obs.RequestEvent
	evicts []obs.EvictionEvent
}

func (c *composeCollector) Request(e obs.RequestEvent)   { c.reqs = append(c.reqs, e) }
func (c *composeCollector) Eviction(e obs.EvictionEvent) { c.evicts = append(c.evicts, e) }
func (c *composeCollector) Adapt(obs.AdaptEvent)         {}

// TestComposedSinkShardsAndSampling drives the production composition
// SamplingSink(AsyncSink(collector)) from one goroutine per shard, each
// stamping its events as a shard's engine does, and asserts two
// invariants survive concurrent emit:
//
//   - exact sampling: the shared SamplingSink's atomic counter admits
//     exactly 1 in every of the offered Request events, regardless of
//     how the emitting goroutines interleave;
//   - tag integrity: every delivered event carries the shard index of
//     the goroutine that emitted it (checked against the query ID each
//     goroutine encodes), i.e. the ring's slabs never smear one
//     producer's events into another's.
//
// Evictions bypass sampling by design, so all of them must arrive.
func TestComposedSinkShardsAndSampling(t *testing.T) {
	const (
		shards    = 8
		perShard  = 4000
		every     = 16
		evictions = 25
	)
	col := &composeCollector{}
	// Ring sized for the whole emission: this test asserts exact counts,
	// so drops must be impossible, not merely unlikely.
	async := NewAsyncSink(col, shards*(perShard+evictions), nil)
	sampled := obs.NewSamplingSink(async, every)

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				sampled.Request(obs.RequestEvent{
					Page:    page.ID(i),
					QueryID: uint64(s), // encode the emitter for tag checks
					Hit:     i%2 == 0,
					Shard:   s,
				})
			}
			for i := 0; i < evictions; i++ {
				sampled.Eviction(obs.EvictionEvent{Page: page.ID(i), Reason: "test", Shard: s})
			}
		}(s)
	}
	wg.Wait()
	if err := async.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	offered := uint64(shards * perShard)
	if want := int(offered) / every; len(col.reqs) != want {
		t.Errorf("delivered %d sampled requests, want exactly %d", len(col.reqs), want)
	}
	if want := shards * evictions; len(col.evicts) != want {
		t.Errorf("delivered %d evictions, want %d (evictions bypass sampling)", len(col.evicts), want)
	}
	for _, e := range col.reqs {
		if uint64(e.Shard) != e.QueryID {
			t.Fatalf("request tagged shard=%d but emitted by shard %d", e.Shard, e.QueryID)
		}
	}
	perShardEvicts := make(map[int]int)
	for _, e := range col.evicts {
		perShardEvicts[e.Shard]++
	}
	for s := 0; s < shards; s++ {
		if perShardEvicts[s] != evictions {
			t.Errorf("shard %d delivered %d evictions, want %d", s, perShardEvicts[s], evictions)
		}
	}
	if async.Dropped() != 0 {
		t.Errorf("ring dropped %d events despite full-size capacity", async.Dropped())
	}
}
