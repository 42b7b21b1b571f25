package main

import "fmt"

// workload is one traffic mix against one server configuration. Every
// workload runs gcn with hidden size 32 over a generated dataset profile.
type workload struct {
	name string
	// profile and scale pick the graph: dataset.ByName(profile) with its
	// Scale multiplied by scale.
	profile string
	scale   int64
	agg     string
	shards  int
	deltaG  int // edge changes per POST /v1/update
	// featEvery replaces every featEvery-th write by a /v1/features request
	// (0 = never).
	featEvery int
}

// writers is the number of closed-loop writer connections of every workload.
// With the reader that makes two connections, nproc on the reference host: a
// second writer oversubscribes its CPUs, and a host slow-down then moves
// update_ack_p50_ms by more than its bound.
const writers = 1

// readRate is the pace of the reader connection every workload carries, in
// GET /v1/embedding per second: a few percent of one core for the server.
const readRate = 500

// The reason for each workload is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "single-max", profile: "YP", scale: 8, agg: "max", shards: 1, deltaG: 1},
	{name: "batch-max", profile: "YP", scale: 8, agg: "max", shards: 1, deltaG: 64},
	{name: "batch-mean-read", profile: "YP", scale: 8, agg: "mean", shards: 1, deltaG: 64, featEvery: 8},
	{name: "shard2-scatter", profile: "PD", scale: 2, agg: "max", shards: 2, deltaG: 16},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the inkserve flags of the workload; everything not named
// here stays at its shipping default (drift auditor on, flight recorder
// 1/64, coalescing on).
func (w workload) serverArgs(file, wal string) []string {
	args := []string{"-file", file, "-model", "gcn", "-agg", w.agg, "-hidden", "32", "-wal", wal}
	if w.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shards), "-partition", "greedy")
	}
	return args
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, perLayer those of a traced
// run; BENCHMARK.json names the same sets (benchjson_test.go holds the two
// together).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_ack_p50_ms", "ms"},
	{"edge_changes_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"server_cpu_s_per_kchange", "s"},
	{"rss_peak_mb", "MiB"},
}

var perLayer = []metricDef{
	{"http.overhead_p50_us", "us"},
	{"http.overhead_mean_us", "us"},

	{"pipeline.journal_p50_us", "us"},
	{"pipeline.coalesce_p50_us", "us"},
	{"pipeline.apply_p50_us", "us"},
	{"pipeline.publish_p50_us", "us"},
	{"pipeline.ack_p50_us", "us"},
	{"pipeline.journal_p99_us", "us"},
	{"pipeline.apply_p99_us", "us"},
	{"pipeline.stage_share.journal", "ratio"},
	{"pipeline.stage_share.coalesce", "ratio"},
	{"pipeline.stage_share.apply", "ratio"},
	{"pipeline.stage_share.publish", "ratio"},
	{"pipeline.stage_share.ack", "ratio"},
	{"pipeline.fused_mean", "count"},
	{"pipeline.group_commit_mean", "count"},
	{"pipeline.accounted_share", "ratio"},

	{"wal.append_commit_p50_us", "us"},
	{"wal.append_commit_p99_us", "us"},
	{"wal.bytes_per_change", "B"},
	{"wal.insitu_append_mean_us", "us"},

	{"engine.apply_p50_us", "us"},
	{"engine.apply_p99_us", "us"},
	{"engine.apply_us_per_change", "us"},
	{"engine.allocs_per_apply", "count"},
	{"engine.alloc_bytes_per_apply", "B"},
	{"engine.delta_apply_p50_us", "us"},
	{"engine.layer0_p50_us", "us"},
	{"engine.layer1_p50_us", "us"},
	{"engine.events_per_change", "count"},
	{"engine.nodes_per_change", "count"},
	{"engine.bytes_fetched_per_change", "B"},
	{"engine.cond_share.no-reset", "ratio"},
	{"engine.cond_share.covered-reset", "ratio"},
	{"engine.cond_share.exposed-reset", "ratio"},
	{"engine.cond_share.pruned", "ratio"},
	{"engine.incremental_share", "ratio"},

	{"snapshot.publish_p50_us", "us"},
	{"snapshot.dirty_rows_per_publish", "count"},
	{"snapshot.read_row_ns", "ns"},

	{"gnn.full_infer_ms", "ms"},
	{"gnn.speedup_vs_full", "ratio"},

	{"shard.round_total_p50_us", "us"},
	{"shard.fuse_p50_us", "us"},
	{"shard.journal_p50_us", "us"},
	{"shard.queue_p50_us", "us"},
	{"shard.bsp_p50_us", "us"},
	{"shard.broadcast_p50_us", "us"},
	{"shard.barrier_share_mean", "ratio"},
	{"shard.straggler_skew_mean", "ratio"},
	{"shard.requests_per_round", "count"},
	{"shard.records_per_round", "count"},
	{"shard.bytes_per_round", "B"},
	{"shard.cut_fraction", "ratio"},

	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.heap_inuse_mb", "MiB"},
	{"runtime.gc_pause_p99_us", "us"},

	{"obs.trace_overhead_pct", "%"},

	{"loadgen.cpu_share", "ratio"},
	{"loadgen.read_late_p99_us", "us"},
	{"client.features_ack_p50_ms", "ms"},
	{"client.update_ack_p95_ms", "ms"},
	{"client.update_ack_p99_ms", "ms"},
	{"client.read_p95_ms", "ms"},
	{"client.read_p99_ms", "ms"},
}

// report builds the metrics object of a result line: every metric in defs,
// in order, taking absent values (a layer the workload does not have) as 0.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
