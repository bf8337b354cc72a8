package live

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/obs/shadow"
)

// critScale converts the float64 spatial criterion into the fixed-point
// int64 domain of obs.Histogram (nano-units, matching the precision the
// JSONL export carries).
const critScale = 1e9

// Gauge is a named instantaneous value scraped at request time. Value
// must be safe to call from any goroutine. Labels is an optional
// Prometheus label set rendered inside the braces (e.g. `shard="3"`);
// several gauges may share a Name with distinct Labels, forming one
// labeled metric family (the per-shard gauges of a sharded pool).
type Gauge struct {
	Name   string
	Labels string
	Help   string
	Value  func() float64
}

// key is the registry identity: one gauge per (name, label set).
func (g Gauge) key() string {
	if g.Labels == "" {
		return g.Name
	}
	return g.Name + "{" + g.Labels + "}"
}

// Service aggregates the live metrics of one buffer stack — the request
// counters of the pool AddPoolGauges registered, the event counters, a
// request-latency histogram, an eviction-criterion histogram and an
// Adapt-event broadcaster — and serves them over HTTP:
//
//	/metrics       Prometheus text exposition format
//	/healthz       liveness probe
//	/events/ctraj  server-sent events: live ASB candidate-size trajectory
//	/events/shadow server-sent events: shadow-cache what-if snapshots
//	/              minimal self-contained HTML dashboard
//
// Attach Sink() to the pool (or tee it with capture sinks); the sink is
// concurrency-safe and implements obs.LatencyRecorder, so the engines
// time requests into the latency histogram. How many requests, hits,
// misses and evictions there were is not counted from events: the
// handlers read it from the pool's Stats, which the engines keep anyway.
type Service struct {
	Counters  *obs.Counters
	Latency   *obs.Histogram
	Criterion *obs.Histogram
	Traj      *Broadcaster

	mu         sync.Mutex
	gauges     []Gauge
	named      map[string]bool
	shadowBank *shadow.Bank
	pool       buffer.Pool // set by AddPoolGauges; nil until then
}

// NewService returns a Service with fresh aggregators.
func NewService() *Service {
	return &Service{
		Counters:  &obs.Counters{},
		Latency:   &obs.Histogram{},
		Criterion: &obs.Histogram{},
		Traj:      NewBroadcaster(),
		named:     make(map[string]bool),
	}
}

// serviceSink fans events into the service's aggregators. A value type:
// attaching it costs one interface allocation once, never per event.
type serviceSink struct{ s *Service }

// Request implements obs.Sink: a request is counted by the engine that
// serves it, in its Stats, and nowhere else.
func (serviceSink) Request(obs.RequestEvent) {}

func (ss serviceSink) Eviction(e obs.EvictionEvent) {
	ss.s.Counters.Eviction(e)
	ss.s.Criterion.Observe(int64(e.Criterion*critScale + 0.5))
}

func (ss serviceSink) OverflowPromotion(e obs.OverflowPromotionEvent) {
	ss.s.Counters.OverflowPromotion(e)
}

func (ss serviceSink) Adapt(e obs.AdaptEvent) {
	ss.s.Counters.Adapt(e)
	ss.s.Traj.Adapt(e)
}

// RecordLatency implements obs.LatencyRecorder.
func (ss serviceSink) RecordLatency(ns int64, weight uint64) { ss.s.Latency.ObserveN(ns, weight) }

// Sink returns the concurrency-safe sink feeding this service.
func (s *Service) Sink() obs.Sink { return serviceSink{s} }

// AddGauge registers an instantaneous value for /metrics.
// Registering a name twice replaces the earlier gauge.
func (s *Service) AddGauge(name, help string, value func() float64) {
	s.AddLabeledGauge(name, "", help, value)
}

// AddLabeledGauge registers a gauge carrying a Prometheus label set
// (e.g. `shard="0"`). Gauges sharing a name but differing in labels
// coexist as one metric family; registering the same (name, labels)
// pair twice replaces the earlier gauge.
func (s *Service) AddLabeledGauge(name, labels, help string, value func() float64) {
	g := Gauge{Name: name, Labels: labels, Help: help, Value: value}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.named[g.key()] {
		for i := range s.gauges {
			if s.gauges[i].key() == g.key() {
				s.gauges[i] = g
				return
			}
		}
	}
	s.named[g.key()] = true
	s.gauges = append(s.gauges, g)
}

// gaugeSample is one scraped gauge value.
type gaugeSample struct {
	Name, Labels, Help string
	Value              float64
}

// stats returns the request counters of the pool AddPoolGauges
// registered, zero before that. Pool.Stats takes every shard's latch,
// which first replays the hits served latch-free (DESIGN.md §5c), so the
// counters of an idle pool are exact.
func (s *Service) stats() buffer.Stats {
	s.mu.Lock()
	pool := s.pool
	s.mu.Unlock()
	if pool == nil {
		return buffer.Stats{}
	}
	return pool.Stats()
}

// gaugeSnapshot copies the registered gauges under the lock and samples
// their values outside it. Gauges sharing a name are grouped adjacently
// (first-registration order within and across groups), as the
// Prometheus exposition format requires for labeled families.
func (s *Service) gaugeSnapshot() []gaugeSample {
	s.mu.Lock()
	gs := make([]Gauge, len(s.gauges))
	copy(gs, s.gauges)
	s.mu.Unlock()
	byName := make(map[string][]Gauge, len(gs))
	var order []string
	for _, g := range gs {
		if _, seen := byName[g.Name]; !seen {
			order = append(order, g.Name)
		}
		byName[g.Name] = append(byName[g.Name], g)
	}
	out := make([]gaugeSample, 0, len(gs))
	for _, name := range order {
		for _, g := range byName[name] {
			out = append(out, gaugeSample{Name: g.Name, Labels: g.Labels, Help: g.Help, Value: g.Value()})
		}
	}
	return out
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/events/ctraj", s.handleCTraj)
	mux.HandleFunc("/events/shadow", s.handleShadow)
	mux.HandleFunc("/", s.handleDashboard)
	return mux
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// latencyBounds is the ladder of Prometheus histogram upper bounds, in
// nanoseconds (exposed in seconds). Spans cache hits (~100ns) through
// multi-second stalls.
var latencyBounds = []int64{
	250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 10_000_000,
	100_000_000, 1_000_000_000,
}

// quantiles reported for summaries.
var summaryQs = []float64{0.5, 0.9, 0.95, 0.99}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.stats()
	c := s.Counters.Snapshot()
	gauges := s.gaugeSnapshot()
	lat := s.Latency.Snapshot()
	crit := s.Criterion.Snapshot()

	var b []byte
	metric := func(name, help, typ string) {
		b = append(b, "# HELP "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, typ...)
		b = append(b, '\n')
	}
	sample := func(name, labels string, v float64) {
		b = append(b, name...)
		if labels != "" {
			b = append(b, '{')
			b = append(b, labels...)
			b = append(b, '}')
		}
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	count := func(name, labels string, v uint64) { sample(name, labels, float64(v)) }

	metric("spatialbuf_requests_total", "Read-path buffer requests.", "counter")
	count("spatialbuf_requests_total", "", st.Requests)
	metric("spatialbuf_hits_total", "Buffer hits.", "counter")
	count("spatialbuf_hits_total", "", st.Hits)
	metric("spatialbuf_misses_total", "Buffer misses (physical reads).", "counter")
	count("spatialbuf_misses_total", "", st.Misses)
	metric("spatialbuf_coalesced_reads_total", "Misses served without their own physical read (singleflight or write-back queue).", "counter")
	count("spatialbuf_coalesced_reads_total", "", st.Coalesced)
	metric("spatialbuf_hit_ratio", "Cumulative hit ratio.", "gauge")
	sample("spatialbuf_hit_ratio", "", st.HitRatio())

	metric("spatialbuf_evictions_total", "Pages evicted, by policy reason.", "counter")
	c.ByReason.Each(func(reason string, n uint64) {
		count("spatialbuf_evictions_total", `reason="`+reason+`"`, n)
	})
	metric("spatialbuf_overflow_promotions_total", "ASB overflow hits promoted back to the main part.", "counter")
	count("spatialbuf_overflow_promotions_total", "", c.Promotions)
	metric("spatialbuf_adaptations_total", "ASB adaptation events, by direction of the candidate-size change.", "counter")
	count("spatialbuf_adaptations_total", `direction="grow"`, c.AdaptGrow)
	count("spatialbuf_adaptations_total", `direction="shrink"`, c.AdaptShrink)
	count("spatialbuf_adaptations_total", `direction="hold"`, c.AdaptHold)
	metric("spatialbuf_events_dropped_total", "Observability events dropped by the async ring sink.", "counter")
	count("spatialbuf_events_dropped_total", "", c.Dropped)

	metric("spatialbuf_request_latency_seconds", "Per-request buffer latency.", "histogram")
	for _, bound := range latencyBounds {
		sample("spatialbuf_request_latency_seconds_bucket",
			`le="`+strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)+`"`,
			float64(lat.CountAtMost(bound)))
	}
	count("spatialbuf_request_latency_seconds_bucket", `le="+Inf"`, lat.Count)
	sample("spatialbuf_request_latency_seconds_sum", "", float64(lat.Sum)/1e9)
	count("spatialbuf_request_latency_seconds_count", "", lat.Count)

	metric("spatialbuf_request_latency_quantile_seconds", "Request-latency quantiles estimated from the log-bucketed histogram.", "gauge")
	for _, q := range summaryQs {
		sample("spatialbuf_request_latency_quantile_seconds",
			`quantile="`+strconv.FormatFloat(q, 'g', -1, 64)+`"`, lat.Quantile(q)/1e9)
	}

	metric("spatialbuf_eviction_criterion", "Spatial criterion of evicted pages.", "summary")
	for _, q := range summaryQs {
		sample("spatialbuf_eviction_criterion",
			`quantile="`+strconv.FormatFloat(q, 'g', -1, 64)+`"`, crit.Quantile(q)/critScale)
	}
	sample("spatialbuf_eviction_criterion_sum", "", float64(crit.Sum)/critScale)
	count("spatialbuf_eviction_criterion_count", "", crit.Count)

	lastName := ""
	for _, g := range gauges {
		if g.Name != lastName {
			metric(g.Name, g.Help, "gauge")
			lastName = g.Name
		}
		sample(g.Name, g.Labels, g.Value)
	}
	w.Write(b)
}

// handleCTraj streams Adapt events as server-sent events, one JSON
// sample per event, until the client disconnects.
func (s *Service) handleCTraj(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// Subscribed before the headers go out: a client that has seen the
	// response misses no event emitted afterwards.
	ch, cancel := s.Traj.Subscribe(256)
	defer cancel()
	fmt.Fprintf(w, "retry: 2000\n\n")
	fl.Flush()

	for {
		select {
		case sample, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(sample)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

// dashboardHTML is the self-contained live dashboard: it polls /metrics
// for the counter and latency tables (every spatialbuf_* sample but the
// histogram buckets) and follows /events/ctraj for the candidate-size
// sparkline. No external assets, so it works on an air-gapped bench box.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>spatial-buffer live</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.5rem; }
table { border-collapse: collapse; }
td, th { padding: .15rem .8rem .15rem 0; text-align: left; font-variant-numeric: tabular-nums; }
svg { border: 1px solid #ccc; background: #fafafa; }
code { background: #f0f0f0; padding: 0 .3em; }
#drops { color: #b00; }
</style>
</head>
<body>
<h1>spatial-buffer live metrics</h1>
<p>Endpoints: <code>/metrics</code> (Prometheus), <code>/healthz</code>, <code>/events/ctraj</code> (SSE), <code>/events/shadow</code> (SSE).</p>
<h2>Counters</h2>
<table id="counters"></table>
<h2>Request latency (seconds)</h2>
<table id="latency"></table>
<h2>ASB candidate-size trajectory (live)</h2>
<svg id="ctraj" width="640" height="160" viewBox="0 0 640 160" preserveAspectRatio="none"></svg>
<p id="ctrajinfo">waiting for adaptation events…</p>
<h2>Shadow caches (what-if policies &amp; miss-ratio curve)</h2>
<table id="shadows"><tr><td>waiting for shadow samples…</td></tr></table>
<p id="shadowinfo"></p>
<script>
const fmt = (v) => Number.isInteger(v) ? v : v.toPrecision(5);
function renderTable(el, obj) {
  el.innerHTML = Object.entries(obj)
    .map(([k, v]) => "<tr><th>" + k + "</th><td>" + fmt(v) + "</td></tr>")
    .join("");
}
// Each exposition line is "name{labels} value"; a label value may hold a
// space, the value never does.
async function poll() {
  try {
    const r = await fetch("/metrics");
    const counters = {}, latency = {};
    for (const line of (await r.text()).split("\n")) {
      const i = line.lastIndexOf(" ");
      const name = line.slice(0, i);
      if (!name.startsWith("spatialbuf_") || name.includes("_bucket")) continue;
      (name.startsWith("spatialbuf_request_latency") ? latency : counters)[name] = Number(line.slice(i + 1));
    }
    renderTable(document.getElementById("counters"), counters);
    renderTable(document.getElementById("latency"), latency);
  } catch (e) { /* server restarting; keep polling */ }
}
setInterval(poll, 1000); poll();

const pts = [];
const es = new EventSource("/events/ctraj");
es.onmessage = (m) => {
  const s = JSON.parse(m.data);
  pts.push(s);
  if (pts.length > 640) pts.shift();
  const ys = pts.map(p => p.new);
  const max = Math.max(...ys, 1);
  const path = ys.map((y, i) =>
    (i ? "L" : "M") + (i * 640 / Math.max(pts.length - 1, 1)).toFixed(1) +
    " " + (150 - 140 * y / max).toFixed(1)).join(" ");
  document.getElementById("ctraj").innerHTML =
    '<path d="' + path + '" fill="none" stroke="#06c" stroke-width="1.5"/>';
  document.getElementById("ctrajinfo").textContent =
    "c = " + s.new + " on shard " + s.shard + " after its " + s.ref + " requests (" + pts.length + " samples shown, max " + max + ")";
};

const shadowEs = new EventSource("/events/shadow");
shadowEs.onerror = () => {
  // 404 (shadow profiling disabled) or server restart: stop retrying
  // only when the panel never received data.
  if (!document.getElementById("shadowinfo").textContent) {
    document.getElementById("shadows").innerHTML =
      "<tr><td>shadow profiling disabled</td></tr>";
    shadowEs.close();
  }
};
shadowEs.onmessage = (m) => {
  const s = JSON.parse(m.data);
  const rows = s.shadows.map(c =>
    "<tr><td>" + c.policy + "</td><td>" + c.capacity + "</td><td>" +
    c.hit_ratio.toPrecision(4) + "</td><td>" + c.window_hit_ratio.toPrecision(4) +
    "</td><td>" + c.hits + "</td><td>" + c.misses + "</td></tr>").join("");
  document.getElementById("shadows").innerHTML =
    "<tr><th>policy</th><th>frames</th><th>hit ratio</th><th>window</th><th>hits</th><th>misses</th></tr>" + rows;
  document.getElementById("shadowinfo").textContent =
    "regret " + s.regret.toPrecision(4) + " (real hit ratio " +
    s.real_hit_ratio.toPrecision(4) + " over " + s.real_requests + " observed requests)";
};
</script>
</body>
</html>
`
