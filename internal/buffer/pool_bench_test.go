package buffer

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/page"
)

// benchNumPages and benchCapacity shape the benchmark workload: a hot
// set that mostly fits and a cold tail that forces steady eviction
// traffic — the serving profile bufserve replays.
const (
	benchNumPages = 512
	benchCapacity = 128
	benchHotPages = 64
)

// benchPageID mixes a hot subset (3 of 4 accesses) with a uniform tail.
func benchPageID(rng *rand.Rand) page.ID {
	if rng.Intn(4) < 3 {
		return page.ID(rng.Intn(benchHotPages) + 1)
	}
	return page.ID(rng.Intn(benchNumPages) + 1)
}

// drivePool issues ops requests against the pool from the given number
// of goroutines, sharing the work through an atomic cursor.
func drivePool(tb testing.TB, pool Pool, workers int, ops int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				i := next.Add(1)
				if i > ops {
					return
				}
				if _, err := pool.Get(benchPageID(rng), AccessContext{QueryID: uint64(i) / 4}); err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		tb.Fatal("pool request failed during benchmark")
	}
}

// benchPools builds the two contenders over fresh stores: a
// LockedEngine (one global mutex) and a Router with the given shard
// count.
func benchPools(tb testing.TB, shards int) (sync_ Pool, sharded Pool) {
	m, err := NewEngine(newStore(tb, benchNumPages), newTestPolicy(), benchCapacity)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := NewRouter(newStore(tb, benchNumPages), testFactory, benchCapacity, shards)
	if err != nil {
		tb.Fatal(err)
	}
	return Lock(m), sp
}

// BenchmarkPoolParallel compares LockedEngine (global mutex) against
// Router (page-hashed per-shard mutexes) under 1, 4 and 8 request
// goroutines. The gap is latch contention only — same store, same
// policy type, same reference mix — so on multi-core hardware the
// sharded pool pulls ahead as workers grow, while at 1 worker the two
// should be within noise of each other.
func BenchmarkPoolParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		syncPool, shardedPool := benchPools(b, 8)
		for _, tc := range []struct {
			name string
			pool Pool
		}{
			{string(LayoutLocked), syncPool},
			{string(LayoutSharded), shardedPool},
		} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				drivePool(b, tc.pool, workers, int64(b.N))
			})
		}
	}
}
