package main

// metricDef names one reported metric. BENCHMARK.json at the root of the
// repository repeats this catalogue; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics, measured by the untraced run. Timings
// carry "norm" in their name: they are divided by the reference unit (see
// ref.go), which is what keeps two runs of the same code within these
// bounds on a machine whose speed changes from second to second. NOISE.md
// has the measurements the bounds rest on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_norm_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_norm_ms", "ms", "lower", 0.25},
	{"latency_tail_norm_ms", "ms", "lower", 0.25},
	{"cpu_norm_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.02},
	{"heap_retained_mb", "MiB", "lower", 0.05},
	{"heldout_qerr_p50", "ratio", "lower", 0.02},
	{"placement_speedup_p50", "ratio", "higher", 0.02},
}

// perLayer are the metrics of single layers, measured by the traced run
// and normalised like the end-to-end timings unless their name starts
// with "raw." or they are a set-up stage (dataset.*, artifact.*). The
// layers are the repository's packages; README.md says which end-to-end
// metric each should move, and on which workload.
var perLayer = []metricDef{
	{Name: "serve.socket_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.socket_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.envelope_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.optimize_socket_us", Unit: "us", Better: "lower"},
	{Name: "serve.optimize_envelope_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected_total", Unit: "count", Better: "lower"},
	{Name: "serve.errors_total", Unit: "count", Better: "lower"},
	{Name: "serve.request_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "B", Better: "lower"},
	{Name: "core.predict_single_us", Unit: "us", Better: "lower"},
	{Name: "core.predict_tile_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "core.call_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.train_samples_s", Unit: "1/s", Better: "higher"},
	{Name: "core.train_allocs_per_sample", Unit: "count", Better: "lower"},
	{Name: "placement.search_us.random", Unit: "us", Better: "lower"},
	{Name: "placement.search_us.exhaustive", Unit: "us", Better: "lower"},
	{Name: "placement.search_us.beam", Unit: "us", Better: "lower"},
	{Name: "placement.search_us.local-search", Unit: "us", Better: "lower"},
	{Name: "placement.examined_per_search", Unit: "count", Better: "lower"},
	{Name: "placement.rounds_per_search", Unit: "count", Better: "lower"},
	{Name: "placement.budget_use_ratio", Unit: "ratio", Better: "higher"},
	{Name: "placement.filtered_ratio", Unit: "ratio", Better: "lower"},
	{Name: "placement.engine_self_us", Unit: "us", Better: "lower"},
	{Name: "placement.heuristic_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "controlplane.tick_idle_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.tick_heal_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.run_model_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.run_oracle_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.model_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.events_per_run", Unit: "count", Better: "lower"},
	{Name: "fleet.migrations_per_run", Unit: "count", Better: "lower"},
	{Name: "fleet.replacements_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.execute_us", Unit: "us", Better: "lower"},
	{Name: "dataset.generate_traces_s", Unit: "s", Better: "lower"},
	{Name: "artifact.save_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.load_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.size_kb", Unit: "KiB", Better: "lower"},
	{Name: "obs.metrics_scrape_us", Unit: "us", Better: "lower"},
	{Name: "obs.metrics_bytes", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_kop", Unit: "ms", Better: "lower"},
	{Name: "bench.ref_us", Unit: "us", Better: "lower"},
	{Name: "bench.echo_us", Unit: "us", Better: "lower"},
	{Name: "bench.ref_cv", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "raw.throughput_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
}
