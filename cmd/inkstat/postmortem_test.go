package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// synthBundle captures a synthetic incident — one slow traced update tied to
// a profiled round, a ticked sampler, a fail-stop record — into a temp dump
// dir and returns the dir.
func synthBundle(t *testing.T) string {
	t.Helper()
	f := obs.NewFlightRecorder(8, 1)
	f.Record(&obs.ReqTrace{
		ID: f.NextID(), Kind: "update", Start: time.Now(),
		Total: 9 * time.Millisecond, Sampled: true, Round: 12,
		GCPause: 150 * time.Microsecond,
	})
	rounds := obs.NewRing[obs.RoundTrace](8)
	rounds.Record(&obs.RoundTrace{
		ID: 12, Start: time.Now(), Reqs: 3, Edges: 7,
		Total: 8 * time.Millisecond,
		Stages: []obs.RoundStageSpan{{
			Name: "layer0", Makespan: 5 * time.Millisecond,
			Shards: []obs.RoundShardSpan{
				{Compute: 5 * time.Millisecond},
				{Compute: time.Millisecond, Barrier: 4 * time.Millisecond},
			},
		}},
	})
	s := obs.NewSampler(time.Second, 16)
	v := 0.0
	s.Gauge("ack_p99_ms", func() float64 { return v })
	for i := 0; i < 4; i++ {
		v = float64(10 * i)
		s.Tick()
	}
	dir := t.TempDir()
	bb := obs.NewBlackBox(obs.BlackBoxConfig{
		Dir: dir, Debounce: -1,
		Source: obs.BlackBoxSource{
			Flight: f, Sampler: s,
			Alerts: obs.NewAlertEngine(s), Runtime: obs.NewRuntime(),
			Config: map[string]any{"deployment": "sharded", "shards": 2},
		},
	})
	defer bb.Close()
	bb.AddFile("rounds.json", func() any { return rounds.Traces() })
	bb.AddFile("failstop.json", func() any {
		return &obs.FailStopInfo{Round: 12, Err: "shard 1: apply exploded", Time: time.Now()}
	})
	if _, err := bb.Capture("fail-stop", "round 12 exploded"); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRenderPostmortem: the offline renderer turns a bundle on disk into a
// report carrying the trigger, fail-stop forensics, runtime snapshot, the
// sampler tail, the slow trace with its round join, and round attribution.
func TestRenderPostmortem(t *testing.T) {
	dir := synthBundle(t)
	var buf bytes.Buffer
	if err := renderPostmortem(&buf, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trigger: fail-stop",
		"round 12 exploded",              // manifest reason
		"FAIL-STOP at round 12",          // forensics block
		"shard 1: apply exploded",        // forensics error
		"runtime at capture: heap=",      // runtime snapshot
		"ack_p99_ms",                     // sampler tail
		"slowest traces (1 of 1",         // trace section
		"round=" + obs.TraceIDString(12), // trace→round join
		"slowest rounds (1 of 1",         // round section
		"straggler=s0",                   // straggler attribution
		"slowest=s0",                     // per-stage slowest shard
		`"sharded"`,                      // config echo
	} {
		if !strings.Contains(out, want) {
			t.Errorf("postmortem output missing %q\n---\n%s", want, out)
		}
	}
}

// TestRenderPostmortemErrors: a directory with no bundle is a load error,
// not an empty report.
func TestRenderPostmortemErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := renderPostmortem(&buf, t.TempDir()); err == nil {
		t.Error("empty dir rendered without error")
	}
}
