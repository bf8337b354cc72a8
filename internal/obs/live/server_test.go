package live_test

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// scriptedPolicy is a FIFO whose i-th eviction carries script[i mod
// len(script)] — a reason and a criterion — and which, if adapt is set,
// reports one adaptation from 3 to 4 on its first hit: a known signal
// mix for the engine to count.
type scriptedPolicy struct {
	frames  []*buffer.Frame
	script  []buffer.Choice
	evicted int
	adapt   bool
}

func (p *scriptedPolicy) Name() string { return "scripted" }

func (p *scriptedPolicy) OnAdmit(f *buffer.Frame, _ uint64, _ buffer.AccessContext) {
	p.frames = append(p.frames, f)
}

func (p *scriptedPolicy) OnHit(_ *buffer.Frame, _ uint64, ctx buffer.AccessContext) {
	if p.adapt {
		p.adapt = false
		ctx.Adapt(obs.AdaptEvent{OldC: 3, NewC: 4})
	}
}

func (p *scriptedPolicy) Victim(buffer.AccessContext) buffer.Choice {
	c := p.script[p.evicted%len(p.script)]
	c.Frame = p.frames[0]
	return c
}

func (p *scriptedPolicy) OnEvict(f *buffer.Frame) {
	p.frames = slices.DeleteFunc(p.frames, func(g *buffer.Frame) bool { return g == f })
	p.evicted++
}

func (p *scriptedPolicy) Reset() { p.frames, p.evicted = nil, 0 }

// scriptedService registers with a fresh service a locked pool of
// frames over a scripted policy, which a tracer times every request of.
func scriptedService(t *testing.T, pol *scriptedPolicy, pages, frames int) (*live.Service, buffer.Pool) {
	t.Helper()
	pool := lockedPool(t, newStore(t, pages), pol, frames)
	pool.(interface{ SetTracer(*tracing.Tracer) }).SetTracer(tracing.NewTracer(1, 1, 16))
	svc := live.NewService()
	svc.AddPoolGauges(pool)
	return svc, pool
}

// feedService returns a service registered with a pool that has served
// ten requests, five of them hits, two of its three misses evicting — under slru with
// criterion 0.25, then under asb-overflow with 0.75 — and its first hit
// adapting 3 → 4. Every request is traced, so each is its own latency
// sample.
func feedService(t *testing.T) *live.Service {
	t.Helper()
	pol := &scriptedPolicy{script: []buffer.Choice{
		{Reason: obs.ReasonSLRU, Win: 0.25}, {Reason: obs.ReasonASBOverflow, Win: 0.75},
	}, adapt: true}
	svc, pool := scriptedService(t, pol, 8, 3)
	for i := 0; i < 10; i++ {
		if _, err := pool.Get(page.ID(1+i/2), buffer.AccessContext{}); err != nil { // a miss, then a hit
			t.Fatal(err)
		}
	}
	return svc
}

func TestMetricsEndpoint(t *testing.T) {
	svc := feedService(t)
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
		`spatialbuf_adaptations_total{direction="grow"} 1`,
		`spatialbuf_adaptations_total{direction="hold"} 0`,
		"spatialbuf_deferred_hits_total 0",
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

// TestDashboardServed: the dashboard fetches /metrics, the one live
// export, and no other URL — no event stream, no JSON copy — and the
// server answers 404 for the streams it no longer has.
func TestDashboardServed(t *testing.T) {
	svc := live.NewService()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body := get(t, ts.URL+"/")
	if !strings.Contains(body, "<title>spatial-buffer live</title>") ||
		!strings.Contains(body, "spatialbuf_asb_candidate_size") {
		t.Error("dashboard HTML incomplete")
	}
	if strings.Count(body, "fetch(") != 1 || !strings.Contains(body, `fetch("/metrics")`) ||
		strings.Contains(body, "EventSource") || strings.Contains(body, "/events/") || strings.Contains(body, "/vars") {
		t.Error("the dashboard must fetch /metrics and no other URL")
	}
	for _, path := range []string{"/nope", "/events/" + "ctraj", "/events/" + "shadow"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestEvictionCriterionSum: 20 000 evictions of criterion 5e5 — each a
// page as large as DB1's data space — sum to 1e10 on /metrics, where an
// int64 of nano-units wraps after 18 447 of them; and the median keeps
// the histogram's 12.5 % bound from the smallest criterion the
// fixed-point scale resolves to the largest of DB1.
func TestEvictionCriterionSum(t *testing.T) {
	// evict serves n evictions of criterion crit: three pages cycling
	// through two FIFO frames miss every time.
	evict := func(crit float64, n int) *live.Service {
		pol := &scriptedPolicy{script: []buffer.Choice{{Reason: obs.ReasonSLRU, Win: crit}}}
		svc, pool := scriptedService(t, pol, 3, 2)
		for i := 0; i < n+2; i++ {
			if _, err := pool.Get(page.ID(1+i%3), buffer.AccessContext{}); err != nil {
				t.Fatal(err)
			}
		}
		return svc
	}
	body := scrape(evict(5e5, 20000), "/metrics")
	if got := metricSample(t, body, `spatialbuf_evictions_total{reason="slru"}`); got != 20000 {
		t.Fatalf("%d evictions served, want 20000", got)
	}
	if got := metricFloat(t, body, "spatialbuf_eviction_criterion_sum"); math.Abs(got-1e10) > 20000*1e-9 {
		t.Errorf("spatialbuf_eviction_criterion_sum = %g, want 1e10", got)
	}
	for _, crit := range []float64{8e-9, 3.3e-7, 0.0125, 526, 5e5} {
		got := metricFloat(t, scrape(evict(crit, 100), "/metrics"), `spatialbuf_eviction_criterion{quantile="0.5"}`)
		if math.Abs(got-crit) > 0.125*crit {
			t.Errorf("median of criterion %g served as %g, beyond 12.5 %%", crit, got)
		}
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

// TestLatencyCountTracksRequests drives a real engine through a mix of
// hits and misses and reads the result off /metrics: the latency
// histogram is a weighted sample — one request in 64, hit or miss,
// standing for 64 — so its count trails the request counter by fewer
// than 64 and never leads it.
func TestLatencyCountTracksRequests(t *testing.T) {
	svc := live.NewService()
	pool := lockedPool(t, newStore(t, 64), core.NewASB(16, core.DefaultASBOptions()), 16)
	svc.AddPoolGauges(pool)
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

// metricFloat returns the sample of an unlabeled-or-exact metric line off
// a /metrics body.
func metricFloat(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return 0
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
// reads the counters and histograms through Pool.View — a barrier — so
// spatialbuf_requests_total, spatialbuf_deferred_hits_total (at least
// the one latch-free hit, at most every hit) and the latency count are
// exact without anyone touching the pool in between.
func TestScrapeOfIdlePoolIsExact(t *testing.T) {
	const workers, perWorker, hot, cold = 2, 20000, 8, 9
	svc := live.NewService()
	pool := lockedPool(t, newStore(t, 64), core.NewLRU(), 32)
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
	st := pool.Stats()
	if got := metricSample(t, body, "spatialbuf_deferred_hits_total"); got != st.DeferredHits || got == 0 || got > st.Hits {
		t.Errorf("spatialbuf_deferred_hits_total = %d, Stats say %d of %d hits, want at least the latch-free one", got, st.DeferredHits, st.Hits)
	}
	timed := metricSample(t, body, "spatialbuf_request_latency_seconds_count")
	if want := latencyCount(pool); timed != want || timed > issued || issued-timed > 63 {
		t.Errorf("spatialbuf_request_latency_seconds_count = %d, the engine's histogram %d, for %d requests", timed, want, issued)
	}
}
