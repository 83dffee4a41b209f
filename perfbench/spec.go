package main

// The metric tables are the single source of truth for what a run
// prints; TestBenchmarkJSON keeps BENCHMARK.json in step.

// metricSpec is one printed metric.
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists what a user of `domd serve` sees, measured with tracing
// off; every workload prints all of them. Latencies are medians of the
// read routes only: on the reference host, in ten-seed sets where those
// medians stayed within the widest bound a metric may have, the p90 and
// wider tails and the median of POST /rccs (a ~0.2 ms round trip that
// follows the host's scheduling noise) spread past it. The run record
// prints p50, p90, p95 and p99 of every route.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"train_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"predict_p50_ms", "ms", "lower"},
	{"fleet_p50_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerSpec is one per-layer metric with the prediction written down
// before any optimisation: which end-to-end metric it should move, on
// which workload, and where it should stay put.
type layerSpec struct {
	metricSpec
	moves, stays string
}

var perLayer = []layerSpec{
	{metricSpec{"server.self_ms.query", "ms", "lower"}, "query_p50_ms everywhere", ""},
	{metricSpec{"server.self_ms.predict", "ms", "lower"}, "predict_p50_ms everywhere", ""},
	{metricSpec{"server.self_ms.fleet", "ms", "lower"}, "fleet_p50_ms everywhere", ""},
	{metricSpec{"server.self_ms.ingest", "ms", "lower"}, "ops_per_s on live-mix (the writer's share)", ""},
	{metricSpec{"server.resp_bytes.query", "bytes", "lower"}, "query_p50_ms on dashboard", ""},
	{metricSpec{"server.resp_bytes.predict", "bytes", "lower"}, "predict_p50_ms on dashboard", ""},
	{metricSpec{"server.resp_bytes.fleet", "bytes", "lower"}, "fleet_p50_ms on dashboard", ""},
	{metricSpec{"server.shed", "count", "lower"}, "error rate (0 everywhere)", ""},
	{metricSpec{"statusq.engine_ms", "ms", "lower"}, "fleet_p50_ms, query_p50_ms on live-mix", "dashboard (all cache hits)"},
	{metricSpec{"statusq.engine_p99_ms", "ms", "lower"}, "fleet_p50_ms, query_p50_ms on live-mix", "dashboard (all cache hits)"},
	{metricSpec{"statusq.engine_builds", "count", "lower"}, "*_p50_ms on live-mix", "dashboard"},
	{metricSpec{"statusq.delta_applies", "count", "higher"}, "*_p50_ms on live-mix", "dashboard"},
	{metricSpec{"statusq.delta_fallbacks", "count", "lower"}, "*_p50_ms on live-mix", "dashboard"},
	{metricSpec{"statusq.stale_serves", "count", "lower"}, "*_p50_ms on live-mix", "dashboard"},
	{metricSpec{"statusq.engine_hit_ratio", "ratio", "higher"}, "*_p50_ms on live-mix", "dashboard"},
	{metricSpec{"statusq.ingest_ms", "ms", "lower"}, "ops_per_s, query_p50_ms on live-mix", "dashboard"},
	{metricSpec{"statusq.ingest_p99_ms", "ms", "lower"}, "query_p50_ms, fleet_p50_ms on live-mix", "dashboard"},
	{metricSpec{"statusq.reopen_ms", "ms", "lower"}, "recover_s on live-mix", "dashboard"},
	{metricSpec{"features.vector_us", "us", "lower"}, "query_p50_ms, predict_p50_ms, fleet_p50_ms on dashboard", ""},
	{metricSpec{"features.vectors_per_op.query", "count", "lower"}, "query_p50_ms on dashboard", ""},
	{metricSpec{"features.vectors_per_op.predict", "count", "lower"}, "predict_p50_ms on dashboard", ""},
	{metricSpec{"features.vectors_per_op.fleet", "count", "lower"}, "fleet_p50_ms on dashboard", ""},
	{metricSpec{"features.share.query", "ratio", "lower"}, "query_p50_ms on dashboard", ""},
	{metricSpec{"features.share.predict", "ratio", "lower"}, "predict_p50_ms on dashboard", ""},
	{metricSpec{"features.share.fleet", "ratio", "lower"}, "fleet_p50_ms on dashboard", ""},
	{metricSpec{"core.trajectory_us", "us", "lower"}, "query_p50_ms on dashboard", ""},
	{metricSpec{"core.top_features_us", "us", "lower"}, "query_p50_ms on dashboard", ""},
	{metricSpec{"core.share.query", "ratio", "lower"}, "query_p50_ms on dashboard", ""},
	{metricSpec{"modelserve.predict_ms", "ms", "lower"}, "predict_p50_ms on dashboard", ""},
	{metricSpec{"modelserve.predict_p99_ms", "ms", "lower"}, "predict_p50_ms on live-mix", ""},
	{metricSpec{"modelserve.reload_ms", "ms", "lower"}, "predict_p50_ms on live-mix", "dashboard"},
	{metricSpec{"modelserve.swaps", "count", "higher"}, "predict_p50_ms on live-mix (one per rollout)", "dashboard"},
	{metricSpec{"wal.append_ms", "ms", "lower"}, "ops_per_s, query_p50_ms on live-mix", "dashboard"},
	{metricSpec{"wal.append_p99_ms", "ms", "lower"}, "query_p50_ms, fleet_p50_ms on live-mix", "dashboard"},
	{metricSpec{"wal.bytes_per_rcc", "bytes", "lower"}, "recover_s on live-mix", ""},
	{metricSpec{"runtime.allocs_per_op.query", "count", "lower"}, "peak_rss_mb, query_p50_ms on dashboard", ""},
	{metricSpec{"runtime.allocs_per_op.predict", "count", "lower"}, "peak_rss_mb, predict_p50_ms on dashboard", ""},
	{metricSpec{"runtime.allocs_per_op.fleet", "count", "lower"}, "peak_rss_mb, fleet_p50_ms on dashboard", ""},
	{metricSpec{"runtime.allocs_per_op.ingest", "count", "lower"}, "peak_rss_mb on live-mix", ""},
	{metricSpec{"loadgen.late_p99_ms", "ms", "lower"}, "query_p50_ms, predict_p50_ms on live-mix (open-loop generator lag)", "dashboard"},
	{metricSpec{"loadgen.late_max_ms", "ms", "lower"}, "query_p50_ms, predict_p50_ms on live-mix (open-loop generator lag)", "dashboard"},
	{metricSpec{"trace.overhead_pct", "%", "lower"}, "nothing: the cost of the spans themselves", ""},
}
