package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every untraced run reports, on every
// workload. The self-tests check that BENCHMARK.json declares exactly
// these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"runs_per_s", "runs/s", "higher"},
	{"pass_p50_ms", "ms", "lower"},
	{"pass_p90_ms", "ms", "lower"},
	{"cpu_us_per_run", "us", "lower"},
	{"allocs_per_run", "allocs", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// selfLayers are the layers the traced pass's self-time table splits
// wall time across; "unattributed" is the remainder no layer covers.
var selfLayers = []string{"sched", "apps", "store", "coord", "findings", "report", "cli", "unattributed"}

// perLayer are the metrics every traced run reports, on every
// workload. A layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"matrix.catalog_ms", "ms", "lower"},
		{"apps.build_us", "us", "lower"},
		{"apps.builds", "count", "lower"},
		{"inject.fingerprint_us", "us", "lower"},
		{"inject.plan_us", "us", "lower"},
		{"inject.plans", "count", "lower"},
		{"inject.world_us", "us", "lower"},
		{"inject.exec_us", "us", "lower"},
		{"inject.compare_us", "us", "lower"},
		{"inject.runs", "count", "lower"},
		{"inject.allocs_per_run", "allocs", "lower"},
		{"sched.steals", "count", "lower"},
		{"sched.inflight_p50_ms", "ms", "lower"},
		{"sched.inflight_p90_ms", "ms", "lower"},
		{"sched.self_ratio", "ratio", "lower"},
		{"store.get_p50_us", "us", "lower"},
		{"store.get_p90_us", "us", "lower"},
		{"store.gets", "count", "lower"},
		{"store.hit_ratio", "ratio", "higher"},
		{"store.put_us", "us", "lower"},
		{"store.puts", "count", "lower"},
		{"store.codec_us", "us", "lower"},
		{"coord.claim_p50_us", "us", "lower"},
		{"coord.claim_p90_us", "us", "lower"},
		{"coord.claims", "count", "lower"},
		{"coord.drain_ms", "ms", "lower"},
		{"coord.journal_bytes", "bytes", "lower"},
		{"coord.requeues", "count", "lower"},
		{"coord.duplicates", "count", "lower"},
		{"findings.build_ms", "ms", "lower"},
		{"findings.encode_ms", "ms", "lower"},
		{"report.render_ms", "ms", "lower"},
		{"cli.wall_ms", "ms", "lower"},
		{"cli.inproc_ms", "ms", "lower"},
		{"cli.overhead_ms", "ms", "lower"},
		{"cli.cpu_ms", "ms", "lower"},
		{"trace.pass_ms", "ms", "lower"},
		{"trace.untraced_p50_ms", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"replay.wall_ms", "ms", "lower"},
	}
	for _, l := range selfLayers {
		ds = append(ds, metricDef{"self." + l + "_ms", "ms", "lower"})
	}
	return ds
}()

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from values keyed by name;
// every def is present, so a run always reports the full set.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
