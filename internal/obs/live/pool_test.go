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
	"repro/internal/obs"
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
	return pool, svc
}

// latencyCount returns the requests the pool's latency histograms stand
// for, read through Pool.View as the service reads them.
func latencyCount(pool buffer.Pool) uint64 {
	var lat, crit obs.LogHistogram
	for i := range pool.Shards() {
		pool.View(i, func(e *buffer.Engine) { e.AddHistograms(&lat, &crit) })
	}
	return lat.Count
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
// which bufserve had registered by hand; both sections gained the
// deferred-hit counter.
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
// an ASB pool while a fifth scrapes /metrics in a loop — every gauge,
// counter and histogram is read under its shard's latch through
// Pool.View, so the race detector has nothing to report. Once the
// workers stop, the request counters, the evictions by reason, the
// adaptations by direction and the deferred hits on /metrics equal
// Stats exactly, the latency count equals the engines' histograms read
// through the same door (and trails the requests by less than 64 per
// shard), each shard's candidate-size gauge equals that shard's
// CandidateSize, and the pool-level gauge is their sum.
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

	body := scrape(svc, "/metrics")
	st := pool.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("stats %+v after %d requests", st, workers*perWorker)
	}
	if st.Adaptations() == 0 {
		t.Fatal("no adaptation event: the run was meant to move c")
	}
	if st.DeferredHits > st.Hits {
		t.Errorf("%d deferred hits of %d hits", st.DeferredHits, st.Hits)
	}
	want := map[string]uint64{
		"spatialbuf_requests_total":                        st.Requests,
		"spatialbuf_hits_total":                            st.Hits,
		"spatialbuf_misses_total":                          st.Misses,
		"spatialbuf_coalesced_reads_total":                 st.Coalesced,
		"spatialbuf_deferred_hits_total":                   st.DeferredHits,
		`spatialbuf_adaptations_total{direction="grow"}`:   st.AdaptGrow,
		`spatialbuf_adaptations_total{direction="shrink"}`: st.AdaptShrink,
		`spatialbuf_adaptations_total{direction="hold"}`:   st.AdaptHold,
		"spatialbuf_request_latency_seconds_count":         latencyCount(pool),
	}
	st.ByReason.Each(func(reason string, n uint64) { want[`spatialbuf_evictions_total{reason="`+reason+`"}`] = n })
	if len(want) < 10 {
		t.Fatalf("no eviction filed by reason: %+v", st)
	}
	for name, n := range want {
		if got := metricSample(t, body, name); got != n {
			t.Errorf("%s = %d, the pool says %d", name, got, n)
		}
	}
	if timed := want["spatialbuf_request_latency_seconds_count"]; timed > st.Requests || st.Requests-timed > 63*uint64(pool.Shards()) {
		t.Errorf("latency count %d for %d requests on %d shards", timed, st.Requests, pool.Shards())
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
