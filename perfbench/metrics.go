package main

// metricDef names a printed metric and its unit. BENCHMARK.json lists
// the same names and units; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run prints, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MB"},
	{"coverage_pct", "%"},
	{"success_pct", "%"},
}

// perLayer is what a traced run prints: the layer metrics of all three
// workloads, plus each workload's tracing overhead and the share of op
// time its layer spans account for.
var perLayer = []metricDef{
	// paper
	{"bench.parse_ms", "ms"},
	{"fault.universe_ms", "ms"},
	{"fault.collapsed_faults", "count"},
	{"testability.analysis_ms", "ms"},
	{"testlen.normalize_ms", "ms"},
	{"core.optimize_ms", "ms"},
	{"core.analyses", "count"},
	{"core.sweeps", "count"},
	{"sim.campaign_ms", "ms"},
	// sweep
	{"engine.sweep_ms", "ms"},
	{"engine.busy_pct", "%"},
	{"sim.task_ms.c1355", "ms"},
	{"sim.task_ms.c499", "ms"},
	{"sim.task_ms.c6288", "ms"},
	{"sim.task_ms.c7552", "ms"},
	{"adapt.rounds", "count"},
	// service
	{"client.rtt_ms", "ms"},
	{"dist.handler_ms.campaign", "ms"},
	{"dist.handler_ms.blobs", "ms"},
	{"client.overhead_ms", "ms"},
	{"http.requests_per_op", "count"},
	{"wire.request_bytes_per_op", "B"},
	{"wire.response_bytes_per_op", "B"},
	{"dist.cache_hit_pct", "%"},
	{"dist.journal_appends", "count"},
	{"dist.journal_replays", "count"},
	{"dist.coalesced", "count"},
	{"dist.shed", "count"},
	// tracing itself
	{"trace.paper.overhead_pct", "%"},
	{"trace.sweep.overhead_pct", "%"},
	{"trace.service.overhead_pct", "%"},
	{"trace.paper.layer_pct", "%"},
	{"trace.sweep.layer_pct", "%"},
	{"trace.service.layer_pct", "%"},
}
