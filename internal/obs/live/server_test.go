package live_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/page"
)

// feedService registers a pool that has served ten requests, five of
// them hits, and pushes a small, known event mix through the service
// sink. The sink is not attached to the pool, so the latency samples are
// exactly the ten fed here — and the Request events fed alongside move no
// counter: the requests are the pool's to count.
func feedService(t *testing.T, svc *live.Service) {
	t.Helper()
	e, err := buffer.NewEngine(newStore(t, 8), core.NewLRU(), 8)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.Lock(e)
	svc.AddPoolGauges(pool)
	sink := svc.Sink()
	lr, ok := sink.(obs.LatencyRecorder)
	if !ok {
		t.Fatal("service sink must implement obs.LatencyRecorder")
	}
	for i := 0; i < 10; i++ {
		if _, err := pool.Get(page.ID(1+i/2), buffer.AccessContext{}); err != nil { // a miss, then a hit
			t.Fatal(err)
		}
		sink.Request(obs.RequestEvent{Page: 1, Hit: true})
		lr.RecordLatency(int64(1000*(i+1)), 1)
	}
	sink.Eviction(obs.EvictionEvent{Page: 2, Reason: obs.ReasonSLRU, Criterion: 0.25})
	sink.Eviction(obs.EvictionEvent{Page: 3, Reason: obs.ReasonASBOverflow, Criterion: 0.75})
	sink.OverflowPromotion(obs.OverflowPromotionEvent{Page: 4})
	sink.Adapt(obs.AdaptEvent{OldC: 3, NewC: 4})
}

func TestMetricsEndpoint(t *testing.T) {
	svc := live.NewService()
	feedService(t, svc)
	svc.AddGauge("spatialbuf_resident_pages", "Frames in use.", func() float64 { return 7 })

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"spatialbuf_requests_total 10",
		"spatialbuf_hits_total 5",
		"spatialbuf_hit_ratio 0.5",
		`spatialbuf_evictions_total{reason="slru"} 1`,
		`spatialbuf_evictions_total{reason="asb-overflow"} 1`,
		"spatialbuf_overflow_promotions_total 1",
		`spatialbuf_adaptations_total{direction="grow"} 1`,
		"spatialbuf_events_dropped_total 0",
		`spatialbuf_request_latency_seconds_bucket{le="+Inf"} 10`,
		"spatialbuf_request_latency_seconds_count 10",
		`spatialbuf_request_latency_quantile_seconds{quantile="0.5"}`,
		`spatialbuf_eviction_criterion{quantile="0.99"}`,
		"spatialbuf_eviction_criterion_count 2",
		"spatialbuf_resident_pages 7",
		"# TYPE spatialbuf_request_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every exposed sample must have a HELP and TYPE header, and the
	// latency histogram buckets must be cumulative (monotone in le).
	var prev float64
	var buckets int
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "spatialbuf_request_latency_seconds_bucket{le=") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts not monotone at %q (prev %g)", line, prev)
		}
		prev = v
		buckets++
	}
	if buckets < 10 {
		t.Errorf("only %d latency buckets exposed", buckets)
	}
	for _, name := range []string{"spatialbuf_requests_total", "spatialbuf_evictions_total", "spatialbuf_resident_pages"} {
		if !strings.Contains(body, "# HELP "+name+" ") || !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("missing HELP/TYPE for %s", name)
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(raw)
}

// TestHealthz: the liveness probe answers, and /vars — a JSON copy of
// the /metrics numbers — is not served.
func TestHealthz(t *testing.T) {
	svc := live.NewService()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if body := get(t, ts.URL+"/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz body = %q", body)
	}
	resp, err := http.Get(ts.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/vars status = %d, want 404", resp.StatusCode)
	}
}

func TestDashboardServed(t *testing.T) {
	svc := live.NewService()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body := get(t, ts.URL+"/")
	if !strings.Contains(body, "<title>spatial-buffer live</title>") ||
		!strings.Contains(body, "/events/ctraj") {
		t.Error("dashboard HTML incomplete")
	}
	if !strings.Contains(body, `fetch("/metrics")`) || strings.Contains(body, "/vars") {
		t.Error("the dashboard must poll /metrics, the one live export, and never /vars")
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}
}

func TestCTrajSSEStreamsAdaptEvents(t *testing.T) {
	svc := live.NewService()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/events/ctraj")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// The handler subscribes before it sends the headers http.Get just
	// returned with, so nothing emitted from here on is missed.
	svc.Sink().Adapt(obs.AdaptEvent{OldC: 3, NewC: 5, Shard: 2, Ref: 3})

	scanner := bufio.NewScanner(resp.Body)
	var sample live.CTrajSample
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sample); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		break
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	want := live.CTrajSample{Ref: 3, Shard: 2, OldC: 3, NewC: 5}
	if sample != want {
		t.Errorf("SSE sample = %+v, want %+v", sample, want)
	}
}

func TestAddGaugeReplaces(t *testing.T) {
	svc := live.NewService()
	svc.AddGauge("g", "first", func() float64 { return 1 })
	svc.AddGauge("g", "second", func() float64 { return 2 })

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "# HELP g second") || !strings.Contains(body, "\ng 2\n") {
		t.Error("re-registered gauge did not replace the original")
	}
	if strings.Contains(body, "\ng 1\n") {
		t.Error("stale gauge value still exposed")
	}
}

// TestLatencyCountTracksRequests drives a real engine with the service
// sink attached through a mix of hits and misses and reads the result
// off /metrics: the latency histogram is a weighted sample — misses one
// by one, hits one in 64 standing for 64 — so its count trails the
// request counter by fewer than 64 and never leads it.
func TestLatencyCountTracksRequests(t *testing.T) {
	svc := live.NewService()
	e, err := buffer.NewEngine(newStore(t, 64), core.NewASB(16, core.DefaultASBOptions()), 16)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.Lock(e)
	svc.AddPoolGauges(pool)
	pool.SetSink(svc.Sink())
	for i := 0; i < 5000; i++ {
		id := page.ID(1 + i%8) // a resident hot set …
		if i%5 == 0 {
			id = page.ID(9 + (i/5)%56) // … and a cycling tail that misses
		}
		if _, err := pool.Get(id, buffer.AccessContext{QueryID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Hits < 1000 || st.Misses < 500 {
		t.Fatalf("stats %+v: the run was meant to mix hits and misses", st)
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/metrics")
	sample := func(name string) uint64 { return metricSample(t, body, name) }
	requests := sample("spatialbuf_requests_total")
	timed := sample("spatialbuf_request_latency_seconds_count")
	if requests != st.Requests {
		t.Errorf("spatialbuf_requests_total = %d, stats say %d", requests, st.Requests)
	}
	if timed > requests || requests-timed > 63 {
		t.Errorf("latency count %d against %d requests, want it behind by at most 63", timed, requests)
	}
	if got := sample(`spatialbuf_request_latency_seconds_bucket{le="+Inf"}`); got != timed {
		t.Errorf("+Inf bucket = %d, count = %d", got, timed)
	}
}

// metricSample returns the integer sample of an unlabeled-or-exact
// metric line off a /metrics body.
func metricSample(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return 0
}

// gateSink counts the Request events and parks the request for one page
// inside its event — that is, under the pool's latch — until released.
type gateSink struct {
	obs.NopSink
	requests         *atomic.Uint64
	page             page.ID
	entered, release chan struct{}
}

func (g gateSink) Request(e obs.RequestEvent) {
	g.requests.Add(1)
	if e.Page == g.page {
		close(g.entered)
		<-g.release
	}
}

// TestScrapeOfIdlePoolIsExact pins the scrape side of the latch-free hit
// contract (DESIGN.md §5c). Two workers burst on one pool; then a request
// finds the latch held by a second goroutine and is served latch-free, so
// the idle pool has served one hit more than its sink has seen. A scrape
// reads the counters through Pool.Stats — a barrier — so
// spatialbuf_requests_total is exact without anyone touching the pool in
// between.
func TestScrapeOfIdlePoolIsExact(t *testing.T) {
	const workers, perWorker, hot, cold = 2, 20000, 8, 9
	svc := live.NewService()
	e, err := buffer.NewEngine(newStore(t, 64), core.NewLRU(), 32)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.Lock(e)
	gate := gateSink{requests: new(atomic.Uint64), page: cold, entered: make(chan struct{}), release: make(chan struct{})}
	pool.SetSink(gate)
	svc.AddPoolGauges(pool)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := pool.Get(page.ID(1+i%hot), buffer.AccessContext{QueryID: uint64(w)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wg.Add(1)
	go func() { // holds the latch inside the miss event of the cold page
		defer wg.Done()
		if _, err := pool.Get(cold, buffer.AccessContext{}); err != nil {
			t.Error(err)
		}
	}()
	<-gate.entered
	if _, err := pool.Get(1, buffer.AccessContext{}); err != nil { // resident: served without the latch
		t.Fatal(err)
	}
	close(gate.release)
	wg.Wait()

	const issued = workers*perWorker + 2
	if got := gate.requests.Load(); got != issued-1 {
		t.Fatalf("the sink has seen %d of %d requests before any barrier, want all but the latch-free one", got, issued)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/metrics")
	if got := metricSample(t, body, "spatialbuf_requests_total"); got != issued {
		t.Errorf("spatialbuf_requests_total = %d on the idle pool, %d were issued", got, issued)
	}
	if got := metricSample(t, body, "spatialbuf_hits_total"); got != issued-hot-1 {
		t.Errorf("spatialbuf_hits_total = %d, want %d", got, issued-hot-1)
	}
}
