package main

import (
	"context"
	"testing"
)

// TestSmoke runs the whole path — build, spawn, bootstrap check, load, final
// check, traced run, layer probe — on a small graph with 1 s segments. The
// full workloads run only from the benchmark command.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns inkserve; skipped with -short")
	}
	r, err := newRunner("..")
	if err != nil {
		t.Fatal(err)
	}
	w := workload{name: "smoke", profile: "PM", scale: 16, agg: "max", shards: 1, deltaG: 1, featEvery: 8}
	for _, traced := range []bool{false, true} {
		res, err := r.run(context.Background(), w, 1, 3, traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
			t.Fatalf("traced=%v: correct=%v, %d of %d failed: %v", traced, res.Correct, res.Failed, res.Attempted, res.errs)
		}
		defs := endToEnd
		var nonZero []string
		for _, d := range endToEnd {
			nonZero = append(nonZero, d.name)
		}
		if traced {
			defs = perLayer
			nonZero = []string{"http.overhead_p50_us", "pipeline.journal_p50_us", "pipeline.stage_share.apply",
				"wal.append_commit_p50_us", "engine.apply_p50_us", "engine.layer0_p50_us", "snapshot.publish_p50_us",
				"gnn.full_infer_ms", "loadgen.cpu_share", "client.features_ack_p50_ms", "client.read_p99_ms"}
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics reported, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, name := range nonZero {
			if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("traced=%v: %s = %v", traced, name, m.Value)
			}
		}
		if traced {
			if acc := res.Metrics["pipeline.accounted_share"].Value; acc < 0.8 || acc > 1.2 {
				t.Errorf("layers account for %.2f of the client's mean latency", acc)
			}
			if res.spans == nil || len(res.spans.Traces) == 0 {
				t.Error("no spans kept from the traced server")
			}
		}
	}
}
