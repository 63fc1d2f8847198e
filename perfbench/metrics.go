package main

// metricDef names one printed metric. The end-to-end and per-layer lists
// are the ones BENCHMARK.json declares; the smoke test keeps them in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is printed on untraced runs (--trace 0), for every workload.
var endToEnd = []metricDef{
	{"job_s", "s"},
	{"w_acc_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"ok_pct", "%"},
}

// pigAliases are the Algorithm 3 statements timed one by one.
var pigAliases = []string{"A", "B", "C", "E", "F", "I", "J", "K", "L", "STORE"}

// perLayer is printed on traced runs (--trace 1), for every workload. A
// layer the workload never enters reads 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"minhash.sketch_s", "s"},
		{"minhash.hash_evals", "count"},
		{"minhash.ns_per_hash_eval", "ns"},
		{"core.sketch_job_s", "s"},
		{"core.simrows_job_s", "s"},
		{"core.lsh_bands_job_s", "s"},
		{"core.lsh_verify_job_s", "s"},
		{"core.lsh_finish_job_s", "s"},
		{"core.driver_s", "s"},
		{"core.lsh_candidate_pairs", "count"},
		{"core.lsh_edges", "count"},
		{"core.lsh_bucket_overflow", "count"},
		{"core.lsh_verify_yield", "ratio"},
		{"mapreduce.jobs", "count"},
		{"mapreduce.shuffle_bytes", "bytes"},
		{"mapreduce.map_output_records", "count"},
		{"mapreduce.task_failures", "count"},
		{"mapreduce.map_task_s", "s"},
		{"mapreduce.reduce_task_s", "s"},
		{"mapreduce.modelled_s", "s"},
		{"cluster.cc_rounds", "count"},
		{"cluster.cc_active_edges", "count"},
		{"cluster.cc_s", "s"},
		{"cluster.matrix_s", "s"},
		{"cluster.dendrogram_s", "s"},
		{"cluster.greedy_s", "s"},
		{"cluster.greedy_sim_calls", "count"},
		{"sigstore.resident_bytes", "bytes"},
		{"sigstore.build_s", "s"},
	}
	for _, a := range pigAliases {
		m = append(m, metricDef{"pig.op_s." + a, "s"})
	}
	return append(m,
		metricDef{"pig.jobs", "count"},
		metricDef{"serve.decode_us", "us"},
		metricDef{"serve.sketch_us", "us"},
		metricDef{"serve.commit_ms", "ms"},
		metricDef{"serve.wal_append_us", "us"},
		metricDef{"serve.wal_sync_ms", "ms"},
		metricDef{"serve.apply_ms", "ms"},
		metricDef{"serve.query_us.point", "us"},
		metricDef{"serve.query_us.clusters", "us"},
		metricDef{"serve.query_us.diversity", "us"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// daemonMetrics are measured over HTTP on serve-mixed only. That
// workload is not in BENCHMARK.json (METRICS.md says why), so these go
// to the detail line, not the result object.
var daemonMetrics = []metricDef{
	{"sustained_reads_per_s", "reads/s"},
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.deadline_exceeded", "count"},
	{"serve.write_errors", "count"},
	{"serve.clusters", "count"},
	{"loadgen.lag_ms_p99", "ms"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer, daemonMetrics} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return "?"
}

// zeroLayers records 0 for every per-layer metric, so a traced run of a
// workload that never enters a layer still prints it; the run then
// overwrites the layers it measures.
func (r *report) zeroLayers() {
	for _, m := range perLayer {
		r.set(m.Name, 0)
	}
}
