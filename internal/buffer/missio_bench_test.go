package buffer

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/storage"
)

// The miss-I/O benchmark models the workload the async miss path is
// for: a store with real read latency and a reference mix that misses
// at least half the time, so the cost under measurement is physical
// I/O, not bookkeeping. Uniform access over missNumPages with
// missCapacity frames yields a ~25% hit ratio — comfortably inside the
// miss-heavy regime.
const (
	missNumPages = benchNumPages
	missCapacity = benchCapacity
	missShards   = 4
	// missReadDelay stands in for device latency; it dominates the
	// in-memory bookkeeping by orders of magnitude, as on real storage.
	missReadDelay = 100 * time.Microsecond
)

// delayStore adds a fixed latency to every Read, simulating a page
// fetch from a storage device. Safe for concurrent use when the base
// store is.
type delayStore struct {
	storage.Store
	delay time.Duration
}

func (s *delayStore) Read(id page.ID) (*page.Page, error) {
	time.Sleep(s.delay)
	return s.Store.Read(id)
}

// driveMissPool issues ops uniform-random Gets from workers goroutines
// — no hot set, so the pool misses on most requests.
func driveMissPool(tb testing.TB, pool Pool, workers int, ops int64) {
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
				id := page.ID(rng.Intn(missNumPages) + 1)
				if _, err := pool.Get(id, AccessContext{QueryID: uint64(i) / 4}); err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		tb.Fatal("pool request failed during miss benchmark")
	}
}

// missPools builds the two contenders over fresh slow stores: a
// synchronous Router (physical reads under the shard lock) and an
// async one (reads outside the lock, singleflight coalescing).
func missPools(tb testing.TB) (syncPool *Router, asyncPool *AsyncPool) {
	mk := func() storage.Store {
		return &delayStore{Store: newStore(tb, missNumPages), delay: missReadDelay}
	}
	sp, err := NewRouter(mk(), testFactory, missCapacity, missShards)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := NewRouter(mk(), testFactory, missCapacity, missShards)
	if err != nil {
		tb.Fatal(err)
	}
	return sp, Async(r, 0, 0)
}

// BenchmarkPoolMissIO compares the under-lock and the non-blocking miss
// path on a miss-heavy workload over a slow store. With reads held
// under the shard lock, concurrent misses hashing to one shard
// serialize on its latency; with the async path they overlap (and
// same-page misses collapse into one read), so throughput should scale
// with workers rather than with shards.
func BenchmarkPoolMissIO(b *testing.B) {
	for _, workers := range []int{4, 16} {
		syncPool, asyncPool := missPools(b)
		defer asyncPool.Close()
		for _, tc := range []struct {
			name string
			pool Pool
		}{
			{"LockedMiss", syncPool},
			{"AsyncMiss", asyncPool},
		} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				driveMissPool(b, tc.pool, workers, int64(b.N))
			})
		}
	}
}
