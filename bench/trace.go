package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// The traced run reads the server's own spans back over its public routes:
// /v1/traces (request spans with the engine's per-layer trace attached),
// /v1/rounds (BSP rounds, sharded deployments), /v1/stats and /metrics.
// Only the fields the per-layer metrics use are decoded.

type span struct {
	Stage string  `json:"stage"`
	US    float64 `json:"us"`
}

type engineTrace struct {
	DeltaApplyUS float64 `json:"delta_apply_us"`
	Layers       []struct {
		ElapsedUS float64 `json:"elapsed_us"`
	} `json:"layers"`
}

type reqTrace struct {
	TraceID string       `json:"trace_id"`
	Kind    string       `json:"kind"`
	Edges   int          `json:"edges"`
	Fused   int          `json:"fused"`
	TotalUS float64      `json:"total_us"`
	Spans   []span       `json:"spans"`
	Error   string       `json:"error"`
	Engine  *engineTrace `json:"engine"`
}

type tracesDoc struct {
	SampleEvery int        `json:"sample_every"`
	Recorded    int64      `json:"recorded"`
	Traces      []reqTrace `json:"traces"`
}

type roundTrace struct {
	RoundID       string  `json:"round_id"`
	Requests      int     `json:"requests"`
	FuseUS        float64 `json:"fuse_us"`
	JournalUS     float64 `json:"journal_us"`
	QueueUS       float64 `json:"queue_us"`
	BSPUS         float64 `json:"bsp_us"`
	BroadcastUS   float64 `json:"broadcast_us"`
	TotalUS       float64 `json:"total_us"`
	Records       int     `json:"records"`
	Bytes         int64   `json:"bytes"`
	BarrierShare  float64 `json:"barrier_share"`
	StragglerSkew float64 `json:"straggler_skew"`
}

type roundsDoc struct {
	Rounds []roundTrace `json:"rounds"`
}

var pipelineStages = []string{"journal", "coalesce", "apply", "publish", "ack"}

// pipelineMetrics turns the update traces into the pipeline and in-situ
// engine metrics. Stage shares are each stage's mean over the sum of the
// stage means, so they add up to 1.
func pipelineMetrics(traces []reqTrace, out map[string]float64) (stageMeanSum float64) {
	byStage := make(map[string][]float64)
	var fused, deltaApply []float64
	layers := make([][]float64, 2)
	updates := 0
	for _, t := range traces {
		if t.Kind != "update" || t.Error != "" {
			continue
		}
		updates++
		for _, sp := range t.Spans {
			byStage[sp.Stage] = append(byStage[sp.Stage], sp.US)
		}
		fused = append(fused, float64(t.Fused))
		if t.Engine != nil {
			deltaApply = append(deltaApply, t.Engine.DeltaApplyUS)
			for l := range layers {
				if l < len(t.Engine.Layers) {
					layers[l] = append(layers[l], t.Engine.Layers[l].ElapsedUS)
				}
			}
		}
	}
	if updates == 0 {
		return 0
	}
	means := make(map[string]float64)
	for _, st := range pipelineStages {
		// A stage the deployment does not have (the router has no coalesce
		// or publish hand-off) contributes 0 to every request.
		var sum float64
		for _, us := range byStage[st] {
			sum += us
		}
		means[st] = sum / float64(updates)
		stageMeanSum += means[st]
		out["pipeline."+st+"_p50_us"] = percentile(byStage[st], 0.50)
	}
	out["pipeline.journal_p99_us"] = percentile(byStage["journal"], 0.99)
	out["pipeline.apply_p99_us"] = percentile(byStage["apply"], 0.99)
	for _, st := range pipelineStages {
		out["pipeline.stage_share."+st] = ratio(means[st], stageMeanSum)
	}
	out["pipeline.fused_mean"] = mean(fused)
	out["engine.delta_apply_p50_us"] = percentile(deltaApply, 0.50)
	out["engine.layer0_p50_us"] = percentile(layers[0], 0.50)
	out["engine.layer1_p50_us"] = percentile(layers[1], 0.50)
	return stageMeanSum
}

// shardMetrics summarises the retained BSP rounds: medians of the span
// durations, means of the ratios and sizes.
func shardMetrics(rounds []roundTrace, out map[string]float64) {
	col := func(f func(roundTrace) float64) []float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return xs
	}
	for name, f := range map[string]func(roundTrace) float64{
		"shard.round_total_p50_us": func(r roundTrace) float64 { return r.TotalUS },
		"shard.fuse_p50_us":        func(r roundTrace) float64 { return r.FuseUS },
		"shard.journal_p50_us":     func(r roundTrace) float64 { return r.JournalUS },
		"shard.queue_p50_us":       func(r roundTrace) float64 { return r.QueueUS },
		"shard.bsp_p50_us":         func(r roundTrace) float64 { return r.BSPUS },
		"shard.broadcast_p50_us":   func(r roundTrace) float64 { return r.BroadcastUS },
	} {
		out[name] = percentile(col(f), 0.50)
	}
	for name, f := range map[string]func(roundTrace) float64{
		"shard.barrier_share_mean":  func(r roundTrace) float64 { return r.BarrierShare },
		"shard.straggler_skew_mean": func(r roundTrace) float64 { return r.StragglerSkew },
		"shard.requests_per_round":  func(r roundTrace) float64 { return float64(r.Requests) },
		"shard.records_per_round":   func(r roundTrace) float64 { return float64(r.Records) },
		"shard.bytes_per_round":     func(r roundTrace) float64 { return float64(r.Bytes) },
	} {
		out[name] = mean(col(f))
	}
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name  string // family name, with _bucket/_sum/_count suffix as written
	le    float64
	value float64
}

// parseProm reads the samples of a text exposition, keeping the le label of
// histogram buckets and dropping every other label.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Drop an exemplar suffix ("… # {trace_id=…} 0.5").
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v, le: math.NaN()}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			labels := s.name[i:]
			s.name = s.name[:i]
			if j := strings.Index(labels, `le="`); j >= 0 {
				rest := labels[j+4:]
				if k := strings.IndexByte(rest, '"'); k >= 0 {
					if s.le, err = strconv.ParseFloat(rest[:k], 64); err != nil {
						return nil, fmt.Errorf("metrics line %q: %w", line, err)
					}
				}
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// promValue returns the first sample of the named family, 0 when absent.
func promValue(samples []promSample, name string) float64 {
	for _, s := range samples {
		if s.name == name {
			return s.value
		}
	}
	return 0
}

// promQuantileBound returns the upper bound of the bucket holding the
// p-quantile of the named histogram: the exposition's resolution is its
// power-of-two buckets.
func promQuantileBound(samples []promSample, name string, p float64) float64 {
	total := promValue(samples, name+"_count")
	if total == 0 {
		return 0
	}
	for _, s := range samples {
		if s.name == name+"_bucket" && s.value >= p*total {
			return s.le
		}
	}
	return 0
}

// metricsMetrics takes the wal, group-commit and runtime numbers from a
// /metrics scrape.
func metricsMetrics(samples []promSample, out map[string]float64) {
	out["pipeline.group_commit_mean"] = ratio(
		promValue(samples, "inkstream_group_commit_batch_size_sum"),
		promValue(samples, "inkstream_group_commit_batch_size_count"))
	out["wal.insitu_append_mean_us"] = 1e6 * ratio(
		promValue(samples, "inkstream_wal_append_latency_seconds_sum"),
		promValue(samples, "inkstream_wal_append_latency_seconds_count"))
	out["runtime.gc_cpu_fraction"] = promValue(samples, "inkstream_runtime_gc_cpu_fraction")
	out["runtime.heap_inuse_mb"] = promValue(samples, "inkstream_runtime_heap_inuse_bytes") / (1 << 20)
	if b := promQuantileBound(samples, "inkstream_runtime_gc_pause_seconds", 0.99); !math.IsInf(b, 0) {
		out["runtime.gc_pause_p99_us"] = 1e6 * b
	}
}

// getJSON decodes a 200 response of GET url into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverSpans is what a traced server handed back, kept to be written out
// with the result.
type serverSpans struct {
	Traces []reqTrace   `json:"traces"`
	Rounds []roundTrace `json:"rounds,omitempty"`
}

// collectTraced reads the traced server's spans and counters into out.
func collectTraced(client *http.Client, srv *server, w workload, out map[string]float64) (*serverSpans, float64, error) {
	base := "http://" + srv.addr
	var td tracesDoc
	if err := getJSON(client, base+"/v1/traces", &td); err != nil {
		return nil, 0, err
	}
	spans := &serverSpans{Traces: td.Traces}
	stageMeanSum := pipelineMetrics(td.Traces, out)

	if w.shards > 1 {
		var rd roundsDoc
		if err := getJSON(client, base+"/v1/rounds", &rd); err != nil {
			return nil, 0, err
		}
		spans.Rounds = rd.Rounds
		shardMetrics(rd.Rounds, out)
		var st struct {
			CutFraction float64 `json:"cut_fraction"`
		}
		if err := getJSON(client, base+"/v1/stats", &st); err != nil {
			return nil, 0, err
		}
		out["shard.cut_fraction"] = st.CutFraction
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	samples, err := parseProm(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	metricsMetrics(samples, out)
	return spans, stageMeanSum, nil
}
