package main

// metric declares one reported number. BENCHMARK.json repeats every
// entry here (a test keeps the two in step); bench/README.md defines
// each metric, its layer, and the end-to-end metric it should move.
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd metrics come from the untraced run and are what a user of
// the CLI or the daemon sees. Every one is reported on every workload.
// The bounds come from ten-run spreads on the reference machine
// (bench/README.md): its neighbours slow it by 20-40% for minutes at a
// time, so every timed metric sits at the largest bound allowed, 25%.
var endToEnd = []metric{
	{name: "mb_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer metrics come from the traced run.
var perLayer = []metric{
	{name: "stream.index_mb_s", unit: "MB/s", better: "higher"},
	{name: "stream.classify_share", unit: "ratio", better: "lower"},
	{name: "fastforward.skip_ratio", unit: "ratio", better: "higher"},
	{name: "fastforward.g1_ratio", unit: "ratio", better: "higher"},
	{name: "fastforward.g2_ratio", unit: "ratio", better: "higher"},
	{name: "fastforward.g3_ratio", unit: "ratio", better: "higher"},
	{name: "fastforward.g4_ratio", unit: "ratio", better: "higher"},
	{name: "fastforward.g5_ratio", unit: "ratio", better: "higher"},
	{name: "fastforward.scanned_mb", unit: "MB", better: "lower"},
	{name: "core.lazy_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.indexed_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.records_per_s", unit: "1/s", better: "higher"},
	{name: "core.set_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.set_vs_separate", unit: "ratio", better: "lower"},
	{name: "core.nav_lookup_ns", unit: "ns", better: "lower"},
	{name: "sink.emit_ns_per_match", unit: "ns", better: "lower"},
	{name: "reader.mb_s", unit: "MB/s", better: "higher"},
	{name: "indexcache.hit_us", unit: "us", better: "lower"},
	{name: "frontend.overhead_ms", unit: "ms", better: "lower"},
	{name: "server.handler_p50_ms", unit: "ms", better: "lower"},
	{name: "server.handler_p99_ms", unit: "ms", better: "lower"},
	{name: "server.record_p50_us", unit: "us", better: "lower"},
	{name: "server.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "server.index_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "server.queue_depth_max", unit: "count", better: "lower"},
	{name: "server.engine_share", unit: "ratio", better: "lower"},
	{name: "server.index_lookup_share", unit: "ratio", better: "lower"},
	{name: "server.sink_flush_share", unit: "ratio", better: "lower"},
	{name: "server.root_self_share", unit: "ratio", better: "lower"},
	{name: "telemetry.overhead_pct", unit: "%", better: "lower"},
	{name: "telemetry.dropped_frac", unit: "ratio", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.backlog_max", unit: "count", better: "lower"},
	{name: "budget.classify_pct", unit: "%", better: "lower"},
	{name: "budget.residual_pct", unit: "%", better: "lower"},
}
