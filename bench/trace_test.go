package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The fixtures under testdata/ were recorded from live inkserve processes
// (-trace-sample 1; rounds.json from -shards 2 -partition greedy;
// metrics.txt is a scrape of a loaded server cut down to the families used
// here and a few around them).

func readFixture(t *testing.T, name string, v any) {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPipelineMetricsFromRecordedTraces(t *testing.T) {
	var td tracesDoc
	readFixture(t, "traces.json", &td)
	if len(td.Traces) != 3 || td.SampleEvery != 1 {
		t.Fatalf("fixture decoded to %d traces, sample_every %d", len(td.Traces), td.SampleEvery)
	}
	out := make(map[string]float64)
	sum := pipelineMetrics(td.Traces, out)

	// The fixture holds one features trace, which the update metrics leave
	// out, and two update traces with these spans, µs:
	//   journal 429.541, 623.303   coalesce 12.351, 9.587   apply 214.86, 178.939
	//   publish 39.576, 40.91      ack 0.065, 0.062
	means := map[string]float64{
		"journal": (429.541 + 623.303) / 2, "coalesce": (12.351 + 9.587) / 2, "apply": (214.86 + 178.939) / 2,
		"publish": (39.576 + 40.91) / 2, "ack": (0.065 + 0.062) / 2,
	}
	var wantSum float64
	for _, m := range means {
		wantSum += m
	}
	if !near(sum, wantSum) {
		t.Errorf("stage mean sum = %v, want %v", sum, wantSum)
	}
	for name, want := range map[string]float64{
		"pipeline.journal_p50_us":      429.541, // nearest rank: the lower of two
		"pipeline.journal_p99_us":      623.303,
		"pipeline.apply_p50_us":        178.939,
		"pipeline.apply_p99_us":        214.86,
		"pipeline.stage_share.journal": means["journal"] / wantSum,
		"pipeline.stage_share.apply":   means["apply"] / wantSum,
		"pipeline.fused_mean":          1,
		"engine.delta_apply_p50_us":    3.52,
		"engine.layer0_p50_us":         36.929,
		"engine.layer1_p50_us":         41.924,
	} {
		if !near(out[name], want) {
			t.Errorf("%s = %v, want %v", name, out[name], want)
		}
	}
	var shares float64
	for _, st := range pipelineStages {
		shares += out["pipeline.stage_share."+st]
	}
	if !near(shares, 1) {
		t.Errorf("stage shares add up to %v", shares)
	}
}

func TestShardMetricsFromRecordedRounds(t *testing.T) {
	var rd roundsDoc
	readFixture(t, "rounds.json", &rd)
	if len(rd.Rounds) != 2 {
		t.Fatalf("fixture decoded to %d rounds", len(rd.Rounds))
	}
	out := make(map[string]float64)
	shardMetrics(rd.Rounds, out)
	// Two rounds of one request each: totals 701.415 and 1365.139 µs,
	// barrier shares 0.3803… and 0.3537…, 3 and 1 records.
	for name, want := range map[string]float64{
		"shard.round_total_p50_us":  701.415,
		"shard.journal_p50_us":      372.897,
		"shard.bsp_p50_us":          213.252,
		"shard.requests_per_round":  1,
		"shard.records_per_round":   2,
		"shard.bytes_per_round":     512,
		"shard.barrier_share_mean":  (0.3803533837181213 + 0.3537901871945004) / 2,
		"shard.straggler_skew_mean": (1.228293559076606 + 1.8134444491687571) / 2,
	} {
		if !near(out[name], want) {
			t.Errorf("%s = %v, want %v", name, out[name], want)
		}
	}
}

func TestMetricsFromRecordedExposition(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	metricsMetrics(samples, out)
	for name, want := range map[string]float64{
		"pipeline.group_commit_mean": 9174.0 / 9147,
		"wal.insitu_append_mean_us":  1e6 * 2.2059734410000003 / 9147,
		"runtime.gc_cpu_fraction":    0.00806637092065073,
		"runtime.heap_inuse_mb":      8.3772568e+07 / (1 << 20),
		// 48 of 50 pauses are at or under 131.072 µs, so the 99th is in the next bucket.
		"runtime.gc_pause_p99_us": 262.144,
	} {
		if !near(out[name], want) {
			t.Errorf("%s = %v, want %v", name, out[name], want)
		}
	}
	// Exemplar suffixes on bucket lines must not disturb the value.
	if got := promValue(samples, "inkstream_ack_latency_seconds_count"); got != 9191 {
		t.Errorf("ack latency count = %v, want 9191", got)
	}
}
