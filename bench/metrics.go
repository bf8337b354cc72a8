package main

// metric describes one reported number. The table below is the
// program's own copy of BENCHMARK.json's metric lists; the smoke test
// asserts the two agree in both directions.
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the baseline it may worsen by
}

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run (-trace 0). Every one is non-zero on every workload, so
// a relative bound is always defined.
var endToEnd = []metric{
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"hit_ratio", "share", "higher", 0.10},
	{"allocs_per_query", "count", "lower", 0.10},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by a traced run
// (-trace 1). Sources: T = span trace, C = counters read through public
// Stats() calls at round boundaries, L = layer ladder, M = micro-loop
// over public functions. See README.md for what each should move.
var perLayer = []metric{
	{name: "rtree.call_self_us", unit: "us", better: "lower"},             // T
	{name: "rtree.call_p99_us", unit: "us", better: "lower"},              // untraced rounds
	{name: "rtree.pages_per_query", unit: "count", better: "lower"},       // C
	{name: "rtree.results_per_query", unit: "count", better: "higher"},    // C
	{name: "buffer.get_hit_ns", unit: "ns", better: "lower"},              // T
	{name: "buffer.get_miss_self_ns", unit: "ns", better: "lower"},        // T
	{name: "buffer.put_self_ns", unit: "ns", better: "lower"},             // T
	{name: "buffer.flush_ms", unit: "ms", better: "lower"},                // T
	{name: "buffer.hit_ratio", unit: "share", better: "higher"},           // C
	{name: "buffer.evictions_per_query", unit: "count", better: "lower"},  // C
	{name: "buffer.writebacks_per_query", unit: "count", better: "lower"}, // C
	{name: "buffer.coalesced_per_query", unit: "count", better: "higher"}, // C
	{name: "buffer.self_share", unit: "share", better: "lower"},           // T
	{name: "storage.read_ns", unit: "ns", better: "lower"},                // T
	{name: "storage.write_ns", unit: "ns", better: "lower"},               // T
	{name: "storage.share", unit: "share", better: "lower"},               // T
	{name: "storage.bg_write_share", unit: "share", better: "lower"},      // T
	{name: "storage.reads_per_query", unit: "count", better: "lower"},     // C
	{name: "storage.writes_per_query", unit: "count", better: "lower"},    // C
	{name: "storage.seq_read_ratio", unit: "share", better: "higher"},     // C
	{name: "storage.decode_ns", unit: "ns", better: "lower"},              // M
	{name: "storage.decode_allocs", unit: "count", better: "lower"},       // M
	{name: "storage.encode_ns", unit: "ns", better: "lower"},              // M
	{name: "storage.space_amp", unit: "ratio", better: "lower"},           // M
	{name: "ladder.engine_lru_ns", unit: "ns", better: "lower"},           // L
	{name: "ladder.policy_asb_ns", unit: "ns", better: "lower"},           // L
	{name: "ladder.lock_ns", unit: "ns", better: "lower"},                 // L
	{name: "ladder.router_ns", unit: "ns", better: "lower"},               // L
	{name: "ladder.async_ns", unit: "ns", better: "lower"},                // L
	{name: "ladder.counters_ns", unit: "ns", better: "lower"},             // L
	{name: "ladder.shadow_ns", unit: "ns", better: "lower"},               // L
	{name: "ladder.tracer1024_ns", unit: "ns", better: "lower"},           // L
	{name: "ladder.filestore_ns", unit: "ns", better: "lower"},            // L
	{name: "ladder.top_ns", unit: "ns", better: "lower"},                  // L
	{name: "ladder.allocs_per_get", unit: "count", better: "lower"},       // L
	{name: "obs.shadow_dropped_share", unit: "share", better: "lower"},    // C
	{name: "obs.traces_sampled", unit: "count", better: "higher"},         // C
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},        // traced vs untraced rounds
	{name: "bench.round_spread_pct", unit: "%", better: "lower"},          // untraced rounds
}
