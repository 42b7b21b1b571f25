package obs

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// testRound builds a two-stage, three-shard trace where shard 2 is the
// straggler: compute totals are 10ms, 20ms, 40ms.
func testRound() *RoundTrace {
	mk := func(ms ...int) []RoundShardSpan {
		out := make([]RoundShardSpan, len(ms))
		max := 0
		for _, m := range ms {
			if m > max {
				max = m
			}
		}
		for i, m := range ms {
			out[i] = RoundShardSpan{
				Compute: time.Duration(m) * time.Millisecond,
				Barrier: time.Duration(max-m) * time.Millisecond,
			}
		}
		return out
	}
	return &RoundTrace{
		ID:    7,
		Start: time.Now(),
		Reqs:  3,
		Edges: 12,
		Stages: []RoundStageSpan{
			{Name: "begin", Makespan: 15 * time.Millisecond, Shards: mk(5, 10, 15)},
			{Name: "layer0", Records: 8, Bytes: 512, Broadcast: 300 * time.Microsecond,
				Makespan: 25 * time.Millisecond, Shards: mk(5, 10, 25)},
		},
		Records: 8,
		Bytes:   512,
		Total:   41 * time.Millisecond,
	}
}

func TestRoundTraceAttribution(t *testing.T) {
	tr := testRound()
	if got := tr.BSPTime(); got != 40*time.Millisecond {
		t.Fatalf("BSPTime = %v, want 40ms", got)
	}
	if got := tr.BroadcastTime(); got != 300*time.Microsecond {
		t.Fatalf("BroadcastTime = %v, want 300µs", got)
	}
	if got := tr.Straggler(); got != 2 {
		t.Fatalf("Straggler = %d, want 2", got)
	}
	// Shard totals 10/20/40ms: mean 23.33ms, max 40ms → skew 12/7.
	if got, want := tr.StragglerSkew(), 12.0/7.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("StragglerSkew = %v, want %v", got, want)
	}
	// BarrierShare = 1 − mean(23.33ms)/BSP(40ms) = 5/12.
	if got, want := tr.BarrierShare(), 5.0/12.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("BarrierShare = %v, want %v", got, want)
	}

	empty := &RoundTrace{}
	if empty.Straggler() != -1 || empty.StragglerSkew() != 0 || empty.BarrierShare() != 0 {
		t.Fatalf("empty trace attribution not zeroed: straggler=%d skew=%v barrier=%v",
			empty.Straggler(), empty.StragglerSkew(), empty.BarrierShare())
	}
}

func TestRoundTraceJSON(t *testing.T) {
	raw, err := json.Marshal(testRound())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["round_id"] != TraceIDString(7) {
		t.Fatalf("round_id = %v", got["round_id"])
	}
	if got["straggler"].(float64) != 2 {
		t.Fatalf("straggler = %v", got["straggler"])
	}
	if got["bsp_us"].(float64) != 40000 {
		t.Fatalf("bsp_us = %v", got["bsp_us"])
	}
	stages := got["stages"].([]any)
	if len(stages) != 2 {
		t.Fatalf("stages = %d", len(stages))
	}
	l0 := stages[1].(map[string]any)
	if l0["stage"] != "layer0" || l0["records"].(float64) != 8 {
		t.Fatalf("layer0 stage = %v", l0)
	}
	shards := l0["shards"].([]any)
	if len(shards) != 3 {
		t.Fatalf("layer0 shards = %d", len(shards))
	}
	s0 := shards[0].(map[string]any)
	if s0["shard"].(float64) != 0 || s0["compute_us"].(float64) != 5000 || s0["barrier_us"].(float64) != 20000 {
		t.Fatalf("layer0 shard0 = %v", s0)
	}
}
