package live_test

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/page"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pool_types.golden from this run")

// asbPool builds an ASB pool of 64 frames over 256 pages from a -pool
// spec and registers its gauges with a fresh service.
func asbPool(t *testing.T, spec string) (buffer.Pool, *live.Service) {
	t.Helper()
	comp, err := buffer.ParseComposition(spec)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := core.FactoryByName("ASB")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := comp.Build(newStore(t, 256), fac.New, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := pool.(interface{ Close() error }); ok {
		t.Cleanup(func() { c.Close() })
	}
	svc := live.NewService()
	svc.AddPoolGauges(pool)
	pool.SetSink(svc.Sink())
	return pool, svc
}

// scrape serves one request for path from the service's handler.
func scrape(svc *live.Service, path string) string {
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Body.String()
}

// TestPoolGaugeNamesGolden pins the metric families an ASB pool serves:
// the sorted "# TYPE" lines of /metrics for a sharded and an unsharded
// composition. testdata/pool_types.golden was generated at the commit
// before AddPoolGauges existed, from the registrations cmd/bufserve made
// by hand, so the names an operator's dashboard reads did not move. Since
// then it lost the promotions counter (an overflow hit is one adaptation)
// and its async section gained the write-back queue's nine families,
// which bufserve had registered by hand.
func TestPoolGaugeNamesGolden(t *testing.T) {
	var got strings.Builder
	for _, spec := range []string{"async,shards=4", "locked"} {
		_, svc := asbPool(t, spec)
		var types []string
		for _, line := range strings.Split(scrape(svc, "/metrics"), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				types = append(types, line)
			}
		}
		sort.Strings(types)
		fmt.Fprintf(&got, "== %s\n%s\n", spec, strings.Join(types, "\n"))
	}
	const path = "testdata/pool_types.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("metric families moved:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// TestScrapeWhileServing is the door under load: four goroutines Get on
// an ASB pool while a fifth scrapes /metrics in a loop — every gauge
// reads its shard through Pool.View and the counters come from
// Pool.Stats, so the race detector has nothing to report. Once the
// workers stop, the four request counters on /metrics equal Stats
// exactly, each shard's candidate-size gauge equals that shard's
// CandidateSize read through the same door, and the pool-level gauge is
// their sum.
func TestScrapeWhileServing(t *testing.T) {
	for _, spec := range []string{"locked", "sharded,shards=4", "async,shards=4"} {
		t.Run(spec, func(t *testing.T) { scrapeWhileServing(t, spec) })
	}
}

func scrapeWhileServing(t *testing.T, spec string) {
	pool, svc := asbPool(t, spec)
	const workers, perWorker = 4, 20000
	stop := make(chan struct{})
	var scraper, wg sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape(svc, "/metrics")
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A hot set that stays resident and a tail that cycles
				// through the overflow buffers, so c adapts.
				id := page.ID(1 + (i*7+w)%24)
				if i%3 == 0 {
					id = page.ID(25 + (i/3*5+w*11)%200)
				}
				if _, err := pool.Get(id, buffer.AccessContext{QueryID: uint64(w)<<32 | uint64(i/8)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if n := svc.Signals().Counters.Adaptations; n == 0 {
		t.Fatal("no adaptation event: the run was meant to move c")
	}
	body := scrape(svc, "/metrics")
	st := pool.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("stats %+v after %d requests", st, workers*perWorker)
	}
	for name, want := range map[string]uint64{
		"spatialbuf_requests_total":        st.Requests,
		"spatialbuf_hits_total":            st.Hits,
		"spatialbuf_misses_total":          st.Misses,
		"spatialbuf_coalesced_reads_total": st.Coalesced,
	} {
		if got := metricSample(t, body, name); got != want {
			t.Errorf("%s = %d, Stats say %d", name, got, want)
		}
	}
	sum := uint64(0)
	for i := 0; i < pool.Shards(); i++ {
		var c int
		pool.View(i, func(e *buffer.Engine) { c = e.Policy().(*core.ASB).CandidateSize() })
		if pool.Shards() > 1 {
			if got := metricSample(t, body, fmt.Sprintf(`spatialbuf_shard_asb_candidate_size{shard="%d"}`, i)); got != uint64(c) {
				t.Errorf("shard %d: gauge says c = %d, the policy %d", i, got, c)
			}
		}
		sum += uint64(c)
	}
	if got := metricSample(t, body, "spatialbuf_asb_candidate_size"); got != sum {
		t.Errorf("spatialbuf_asb_candidate_size = %d, the shards sum to %d", got, sum)
	}
}

// TestOneServiceTwoPools: one service attached to a bare engine and to a
// two-shard pool, both driven at once (two goroutines on the pool) while
// /metrics is scraped, still counts every eviction and adaptation of the
// three engines exactly, because each engine keeps a block of its own.
func TestOneServiceTwoPools(t *testing.T) {
	asb := func(c int) buffer.Policy { return core.NewASB(c, core.DefaultASBOptions()) }
	bare, err := buffer.NewEngine(newStore(t, 256), asb(32), 32)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := buffer.ParseComposition("sharded,shards=2")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := comp.Build(newStore(t, 256), asb, 64)
	if err != nil {
		t.Fatal(err)
	}
	svc := live.NewService()
	bare.SetSink(svc.Sink())
	pool.SetSink(svc.Sink())

	drive := func(p buffer.Pool, w, n int) error {
		for i := 0; i < n; i++ {
			id := page.ID(1 + (i*7+w)%24) // a resident hot set and a tail
			if i%3 == 0 {
				id = page.ID(25 + (i/3*5+w*11)%200)
			}
			if _, err := p.Get(id, buffer.AccessContext{QueryID: uint64(w)<<32 | uint64(i/8)}); err != nil {
				return err
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var scraper, wg sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape(svc, "/metrics")
			}
		}
	}()
	for w, p := range []buffer.Pool{bare, pool, pool} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := drive(p, w, 20000); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	c := svc.Signals().Counters
	evictions := bare.Stats().Evictions + pool.Stats().Evictions
	filed := uint64(0)
	c.ByReason.Each(func(_ string, n uint64) { filed += n })
	if filed != evictions {
		t.Errorf("service filed %d evictions by reason, the engines made %d", filed, evictions)
	}
	adaptations := bare.Policy().(*core.ASB).Adaptations()
	for i := range pool.Shards() {
		pool.View(i, func(e *buffer.Engine) { adaptations += e.Policy().(*core.ASB).Adaptations() })
	}
	if adaptations == 0 || c.Adaptations != adaptations || c.AdaptGrow+c.AdaptShrink+c.AdaptHold != adaptations {
		t.Errorf("service counted %+v adaptations, the engines' ASB %d", c, adaptations)
	}
}
