package live

import (
	"strconv"

	"repro/internal/buffer"
	"repro/internal/obs/shadow"
	"repro/internal/obs/tracing"
)

// asbGauges is the slice of core.ASB the live layer reads for gauges:
// the candidate-set size, the overflow occupancy and the two part
// capacities. Defined here (not in core) so the live layer stays
// policy-agnostic — any adaptive policy with these is scrapeable. They
// are plain reads of state the policy changes on the request path, which
// is why AddPoolGauges calls them inside Pool.View and nowhere else.
type asbGauges interface {
	CandidateSize() int
	OverflowLen() int
	OverflowCapacity() int
	MainCapacity() int
}

// AddPoolGauges makes pool the one the service reports on: its Stats and
// its engines' histograms become the counters and histograms of
// /metrics, and what it says about
// itself is registered as gauges, every value read through Pool.View —
// under the latch of the shard it belongs to, a few times a second,
// instead of the request path publishing it:
// spatialbuf_resident_pages and spatialbuf_shards; with more than one
// shard the spatialbuf_shard_*{shard="i"} families; and, when the policy
// is an adaptable spatial buffer, the spatialbuf_asb_* families, summed
// over the shards (each value counts frames exactly one shard owns) so a
// sharded pool serves the names a single ASB does. A shared pool with a
// write-back queue (the async layout; without one, it reports no
// writers) adds the spatialbuf_writeback_* families and
// spatialbuf_inflight_reads, read off the queue's own atomics.
func (s *Service) AddPoolGauges(pool buffer.Pool) {
	s.mu.Lock()
	s.pool = pool
	s.mu.Unlock()
	shards := pool.Shards()
	// on reads f off shard i's engine; total sums it over all shards,
	// one latch after the other — the usual multi-counter scrape contract.
	on := func(i int, f func(*buffer.Engine) int) func() float64 {
		return func() (v float64) {
			pool.View(i, func(e *buffer.Engine) { v = float64(f(e)) })
			return v
		}
	}
	total := func(f func(*buffer.Engine) int) func() float64 {
		return func() (v float64) {
			for i := 0; i < shards; i++ {
				pool.View(i, func(e *buffer.Engine) { v += float64(f(e)) })
			}
			return v
		}
	}
	asb := func(get func(asbGauges) int) func(*buffer.Engine) int {
		return func(e *buffer.Engine) int { return get(e.Policy().(asbGauges)) }
	}
	// Every shard's policy comes from the one factory, so shard 0 tells
	// whether the pool is an ASB.
	isASB := false
	pool.View(0, func(e *buffer.Engine) { _, isASB = e.Policy().(asbGauges) })

	s.AddGauge("spatialbuf_resident_pages", "Pages currently held in buffer frames.",
		total((*buffer.Engine).Len))
	s.AddGauge("spatialbuf_shards", "Buffer pool shards (1 = single mutex-protected pool).",
		func() float64 { return float64(shards) })
	for i := 0; shards > 1 && i < shards; i++ { // one shard: the pool gauges say it all
		labels := `shard="` + strconv.Itoa(i) + `"`
		s.addLabeledGauge("spatialbuf_shard_resident_pages", labels,
			"Pages currently resident in this buffer shard.", on(i, (*buffer.Engine).Len))
		if isASB {
			s.addLabeledGauge("spatialbuf_shard_asb_candidate_size", labels,
				"Per-shard ASB candidate-set size c.", on(i, asb(asbGauges.CandidateSize)))
			s.addLabeledGauge("spatialbuf_shard_asb_overflow_pages", labels,
				"Per-shard pages in the ASB overflow buffer.", on(i, asb(asbGauges.OverflowLen)))
		}
	}
	if isASB {
		s.AddGauge("spatialbuf_asb_candidate_size", "Current ASB candidate-set size c.",
			total(asb(asbGauges.CandidateSize)))
		s.AddGauge("spatialbuf_asb_overflow_pages", "Pages currently in the ASB overflow buffer.",
			total(asb(asbGauges.OverflowLen)))
		s.AddGauge("spatialbuf_asb_overflow_capacity_pages", "Capacity of the ASB overflow buffer.",
			total(asb(asbGauges.OverflowCapacity)))
		s.AddGauge("spatialbuf_asb_main_capacity_pages", "Capacity of the ASB main part.",
			total(asb(asbGauges.MainCapacity)))
	}
	if sp, ok := pool.(*buffer.Shared); ok && sp.Writeback().Workers > 0 {
		s.AddGauge("spatialbuf_writeback_queue_depth", "Pages waiting in the background write-back queue.",
			func() float64 { return float64(sp.Writeback().Depth) })
		s.AddGauge("spatialbuf_writeback_pending_pages", "Pages queued or mid-write in the write-back machinery.",
			func() float64 { return float64(sp.Writeback().Pending) })
		s.AddGauge("spatialbuf_writeback_written_total", "Completed background page writes.",
			func() float64 { return float64(sp.Writeback().Written) })
		s.AddGauge("spatialbuf_writeback_coalesced_total", "Write-backs absorbed by an already-queued entry for the same page.",
			func() float64 { return float64(sp.Writeback().Coalesced) })
		s.AddGauge("spatialbuf_writeback_fallbacks_total", "Evictions written synchronously because the queue was full.",
			func() float64 { return float64(sp.Writeback().Fallbacks) })
		s.AddGauge("spatialbuf_writeback_queue_capacity", "Write-back queue capacity in pages.",
			func() float64 { return float64(sp.Writeback().QueueCap) })
		s.AddGauge("spatialbuf_writeback_canceled_total", "Queued write-backs canceled because the page was re-admitted before its write ran.",
			func() float64 { return float64(sp.Writeback().Canceled) })
		s.AddGauge("spatialbuf_writeback_errors_total", "Background page writes that failed.",
			func() float64 { return float64(sp.Writeback().Errors) })
		s.AddGauge("spatialbuf_inflight_reads", "Physical reads currently in flight across all shards (singleflight leaders).",
			func() float64 { return float64(sp.InflightReads()) })
	}
}

// AddContentionGauges registers shard-labeled lock-contention gauges fed
// by a tracing.Contention profiler (attach the profiler to the pool with
// buffer.Shared.EnableContention). Each
// shard exposes its cumulative lock-wait time, the instantaneous queue
// depth on its lock, and its completed acquisitions — the aggregate view
// of the per-request LockWait field of trace spans, answering "which
// shard is the hot one" without sampling.
func (s *Service) AddContentionGauges(c *tracing.Contention) {
	for i := 0; i < c.Shards(); i++ {
		labels := `shard="` + strconv.Itoa(i) + `"`
		s.addLabeledGauge("spatialbuf_shard_lock_wait_seconds_total", labels,
			"Cumulative shard-lock wait time of buffer requests.",
			func() float64 { return float64(c.WaitNanos(i)) / 1e9 })
		s.addLabeledGauge("spatialbuf_shard_lock_waiters", labels,
			"Goroutines currently acquiring (queue depth of) the shard lock.",
			func() float64 { return float64(c.Waiters(i)) })
		s.addLabeledGauge("spatialbuf_shard_lock_acquisitions_total", labels,
			"Completed shard-lock acquisitions on the buffer request path.",
			func() float64 { return float64(c.Acquisitions(i)) })
	}
}

// AddTracerGauges registers the tracer's sampling throughput: how many
// requests were offered to the sampler (spans recorded = seen divided by
// the sampling interval, steady-state).
func (s *Service) AddTracerGauges(t *tracing.Tracer) {
	s.AddGauge("spatialbuf_trace_requests_seen_total",
		"Buffer requests offered to the trace sampler.",
		func() float64 { return float64(t.Seen()) })
	s.AddGauge("spatialbuf_trace_sample_interval",
		"Trace sampling interval (1 = every request).",
		func() float64 { return float64(t.SampleEvery()) })
}

// AddAsyncSinkGauges registers the health gauges of an AsyncSink ring:
// delivered and dropped event counts plus the instantaneous ring depth
// and its capacity. A depth pinned near capacity (or a growing dropped
// count) means the drain side — usually a JSONL writer — cannot keep up
// with the event rate.
func (s *Service) AddAsyncSinkGauges(a *AsyncSink) {
	s.AddGauge("spatialbuf_async_delivered_events_total",
		"Events the async ring sink delivered downstream.",
		func() float64 { return float64(a.Delivered()) })
	s.AddGauge("spatialbuf_async_dropped_events_total",
		"Events the async ring sink dropped because the ring was full.",
		func() float64 { return float64(a.Dropped()) })
	s.AddGauge("spatialbuf_async_ring_depth_events",
		"Events currently queued in the async ring.",
		func() float64 { return float64(a.depth()) })
	s.AddGauge("spatialbuf_async_ring_capacity_events",
		"Capacity of the async ring.",
		func() float64 { return float64(a.capacity()) })
}

// AddShadowGauges registers the shadow-cache profiler's metric families.
// Per shadow cache (labeled policy + simulated capacity):
//
//	spatialbuf_shadow_hit_ratio         cumulative hit ratio
//	spatialbuf_shadow_window_hit_ratio  last completed rolling window
//	spatialbuf_shadow_hits_total        cumulative hits
//	spatialbuf_shadow_misses_total      cumulative misses
//
// plus the unlabeled pool-level pair:
//
//	spatialbuf_shadow_regret          real hit ratio − best shadow's
//	spatialbuf_shadow_requests_total  events observed by the bank
//
// All values read atomics; scraping never touches the bank's mutex.
func (s *Service) AddShadowGauges(b *shadow.Bank) {
	for _, c := range b.Shadows() {
		labels := `policy="` + c.PolicyName() + `",capacity="` + strconv.Itoa(c.Capacity()) + `"`
		s.addLabeledGauge("spatialbuf_shadow_hit_ratio", labels,
			"Cumulative hit ratio of a shadow (ghost) cache simulating an alternative configuration.",
			func() float64 { return c.HitRatio() })
		s.addLabeledGauge("spatialbuf_shadow_window_hit_ratio", labels,
			"Hit ratio of the shadow cache's last completed rolling window.",
			func() float64 { return c.WindowHitRatio() })
		s.addLabeledGauge("spatialbuf_shadow_hits_total", labels,
			"Cumulative shadow-cache hits.",
			func() float64 { return float64(c.Hits()) })
		s.addLabeledGauge("spatialbuf_shadow_misses_total", labels,
			"Cumulative shadow-cache misses.",
			func() float64 { return float64(c.Misses()) })
	}
	s.AddGauge("spatialbuf_shadow_regret",
		"Real policy's hit ratio minus the best same-capacity shadow's; negative means a simulated configuration is winning.",
		func() float64 { return b.Regret() })
	s.AddGauge("spatialbuf_shadow_requests_total",
		"Request events observed by the shadow bank (after any sampling).",
		func() float64 { return float64(b.RealRequests()) })
}
