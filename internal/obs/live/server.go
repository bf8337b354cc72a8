package live

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/buffer"
	"repro/internal/obs"
)

// gauge is a named instantaneous value scraped at request time. Value
// must be safe to call from any goroutine. Labels is an optional
// Prometheus label set rendered inside the braces (e.g. `shard="3"`);
// several gauges may share a Name with distinct Labels, forming one
// labeled metric family (the per-shard gauges of a sharded pool).
type gauge struct {
	Name   string
	Labels string
	Help   string
	Value  func() float64
}

// key is the registry identity: one gauge per (name, label set).
func (g gauge) key() string {
	if g.Labels == "" {
		return g.Name
	}
	return g.Name + "{" + g.Labels + "}"
}

// Service serves the live metrics of one buffer pool — the one
// AddPoolGauges registered: its Stats (requests, hits, misses, coalesced
// and deferred hits, evictions by reason, adaptations by direction), its
// engines' request-latency and eviction-criterion histograms, the events
// async rings dropped and the registered gauges — over HTTP:
//
//	/metrics  Prometheus text exposition format, the one live export
//	/healthz  liveness probe
//	/         minimal self-contained HTML dashboard polling /metrics
//
// It consumes no event: every engine keeps its signals itself, in plain
// fields, and a scrape reads them under each shard's latch (Pool.View),
// as it reads the gauges.
type Service struct {
	// Counters takes the events async rings drop (pass its AddDropped to
	// live.NewAsyncSink); the engines count the rest.
	Counters *obs.Counters

	mu     sync.Mutex
	gauges []gauge
	named  map[string]bool
	pool   buffer.Pool // set by AddPoolGauges; nil until then
}

// NewService returns a Service with fresh aggregators.
func NewService() *Service {
	return &Service{Counters: &obs.Counters{}, named: make(map[string]bool)}
}

// Sink returns a NopSink: the service reads its signals from the pool,
// not from events. It stays only for the benchmark harness, which still
// attaches it (ROADMAP direction 3(e) moves that caller).
func (s *Service) Sink() obs.Sink { return obs.NopSink{} }

// AddGauge registers an instantaneous value for /metrics.
// Registering a name twice replaces the earlier gauge.
func (s *Service) AddGauge(name, help string, value func() float64) {
	s.addLabeledGauge(name, "", help, value)
}

// addLabeledGauge registers a gauge carrying a Prometheus label set
// (e.g. `shard="0"`). Gauges sharing a name but differing in labels
// coexist as one metric family; registering the same (name, labels)
// pair twice replaces the earlier gauge.
func (s *Service) addLabeledGauge(name, labels, help string, value func() float64) {
	g := gauge{Name: name, Labels: labels, Help: help, Value: value}
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

// signals reads what the pool AddPoolGauges registered has counted —
// the merge of its shards' Stats and histograms, each shard under its
// latch (Pool.View, which first replays the hits served latch-free,
// DESIGN.md §5c, so an idle pool's counts are exact) — and zeros before
// a pool is registered.
func (s *Service) signals() (st buffer.Stats, lat, crit *obs.LogHistogram) {
	lat, crit = new(obs.LogHistogram), new(obs.LogHistogram)
	s.mu.Lock()
	pool := s.pool
	s.mu.Unlock()
	if pool == nil {
		return st, lat, crit
	}
	for i := range pool.Shards() {
		pool.View(i, func(e *buffer.Engine) {
			st.Add(e.Stats())
			e.AddHistograms(lat, crit)
		})
	}
	return st, lat, crit
}

// gaugeSnapshot copies the registered gauges under the lock and samples
// their values outside it. Gauges sharing a name are grouped adjacently
// (first-registration order within and across groups), as the
// Prometheus exposition format requires for labeled families.
func (s *Service) gaugeSnapshot() []gaugeSample {
	s.mu.Lock()
	gs := make([]gauge, len(s.gauges))
	copy(gs, s.gauges)
	s.mu.Unlock()
	byName := make(map[string][]gauge, len(gs))
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
	st, lat, crit := s.signals()
	gauges := s.gaugeSnapshot()

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
	metric("spatialbuf_deferred_hits_total", "Hits served without the shard latch and accounted at its next acquisition.", "counter")
	count("spatialbuf_deferred_hits_total", "", st.DeferredHits)

	metric("spatialbuf_evictions_total", "Pages evicted, by policy reason.", "counter")
	st.ByReason.Each(func(reason string, n uint64) {
		count("spatialbuf_evictions_total", `reason="`+reason+`"`, n)
	})
	metric("spatialbuf_adaptations_total", "ASB adaptation events, by direction of the candidate-size change.", "counter")
	count("spatialbuf_adaptations_total", `direction="grow"`, st.AdaptGrow)
	count("spatialbuf_adaptations_total", `direction="shrink"`, st.AdaptShrink)
	count("spatialbuf_adaptations_total", `direction="hold"`, st.AdaptHold)
	metric("spatialbuf_events_dropped_total", "Observability events dropped by the async ring sink.", "counter")
	count("spatialbuf_events_dropped_total", "", s.Counters.Dropped())

	metric("spatialbuf_request_latency_seconds", "Per-request buffer latency.", "histogram")
	for _, bound := range latencyBounds {
		sample("spatialbuf_request_latency_seconds_bucket",
			`le="`+strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)+`"`,
			float64(lat.CountAtMost(bound)))
	}
	count("spatialbuf_request_latency_seconds_bucket", `le="+Inf"`, lat.Count)
	sample("spatialbuf_request_latency_seconds_sum", "", lat.Sum/1e9)
	count("spatialbuf_request_latency_seconds_count", "", lat.Count)

	metric("spatialbuf_request_latency_quantile_seconds", "Request-latency quantiles estimated from the log-bucketed histogram.", "gauge")
	for _, q := range summaryQs {
		sample("spatialbuf_request_latency_quantile_seconds",
			`quantile="`+strconv.FormatFloat(q, 'g', -1, 64)+`"`, lat.Quantile(q)/1e9)
	}

	metric("spatialbuf_eviction_criterion", "Spatial criterion of evicted pages.", "summary")
	for _, q := range summaryQs {
		sample("spatialbuf_eviction_criterion",
			`quantile="`+strconv.FormatFloat(q, 'g', -1, 64)+`"`, crit.Quantile(q)/obs.CriterionScale)
	}
	sample("spatialbuf_eviction_criterion_sum", "", crit.Sum/obs.CriterionScale)
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

func (s *Service) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

// dashboardHTML is the self-contained live dashboard: it polls /metrics
// once a second for the counter and latency tables (every spatialbuf_*
// sample but the histogram buckets) and plots the polled
// spatialbuf_asb_candidate_size as the candidate-size sparkline. No
// external assets, so it works on an air-gapped bench box.
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
</style>
</head>
<body>
<h1>spatial-buffer live metrics</h1>
<p>Polled from <code>/metrics</code> (Prometheus) once a second; <code>/healthz</code> is the liveness probe.</p>
<h2>ASB candidate-set size c</h2>
<svg id="ctraj" width="640" height="160" viewBox="0 0 640 160" preserveAspectRatio="none"></svg>
<p id="ctrajinfo">no spatialbuf_asb_candidate_size sample yet…</p>
<h2>Counters</h2>
<table id="counters"></table>
<h2>Request latency (seconds)</h2>
<table id="latency"></table>
<script>
const fmt = (v) => Number.isInteger(v) ? v : v.toPrecision(5);
function renderTable(el, obj) {
  el.innerHTML = Object.entries(obj)
    .map(([k, v]) => "<tr><th>" + k + "</th><td>" + fmt(v) + "</td></tr>")
    .join("");
}
const pts = [];
function plot(c) {
  pts.push(c);
  if (pts.length > 640) pts.shift();
  const max = Math.max(...pts, 1);
  const path = pts.map((y, i) =>
    (i ? "L" : "M") + (i * 640 / Math.max(pts.length - 1, 1)).toFixed(1) +
    " " + (150 - 140 * y / max).toFixed(1)).join(" ");
  document.getElementById("ctraj").innerHTML =
    '<path d="' + path + '" fill="none" stroke="#06c" stroke-width="1.5"/>';
  document.getElementById("ctrajinfo").textContent =
    "c = " + c + " (" + pts.length + " samples shown, max " + max + ")";
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
    if ("spatialbuf_asb_candidate_size" in counters) plot(counters["spatialbuf_asb_candidate_size"]);
  } catch (e) { /* server restarting; keep polling */ }
}
setInterval(poll, 1000); poll();
</script>
</body>
</html>
`
