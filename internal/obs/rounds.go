package obs

import (
	"encoding/json"
	"time"
)

// Round profiler (DESIGN.md §9.2): per-BSP-round spans for partitioned
// serving.
//
// A request trace (flight.go) explains one request's latency; it cannot
// explain why an 8-shard deployment is slower than a 2-shard one, because
// the cost lives *between* requests — in the barrier-synchronised round the
// router executes across all shards. A RoundTrace records one round's
// critical path: per barrier stage, the per-shard compute time, the
// ghost-refresh share of it, and the barrier wait (the gap between a shard
// finishing and the slowest shard — the straggler — closing the stage).
// The shard router keeps the last N rounds in a Ring, the one the
// FlightRecorder keeps request traces in.

// RoundShardSpan is one shard's slice of one barrier stage.
type RoundShardSpan struct {
	// Compute is the shard's wall time inside the stage call
	// (BeginRound, RoundLayer, FinishRound+publish); Barrier is the stage
	// makespan minus Compute — the time the shard spent waiting for the
	// straggler to close the barrier.
	Compute time.Duration
	Barrier time.Duration
	// Ghost is the ghost-row refresh share of Compute (adopting remote
	// message rows before the layer runs); Events what the shard routed in a
	// layer stage, on LayerSpan.EventsIn's definition (changed-edge events
	// plus routed arc events) plus its user events.
	Ghost  time.Duration
	Events int
	// GhostRows counts the remote rows the shard adopted in the stage.
	// Skipped marks a layer call the router elided because the shard had no
	// events, no delivered records and no carried hooks — a skipped shard is
	// excluded from makespan and barrier attribution.
	GhostRows int
	Skipped   bool
}

// RoundStageSpan is one barrier-synchronised stage of a round: the begin
// stage (sub-batch apply), one entry per layer, and the finish/publish
// stage. The stage's makespan is the slowest shard — the barrier closes
// when it finishes.
type RoundStageSpan struct {
	// Name is "begin", "layer<k>" or "publish".
	Name string
	// Records and Bytes are the message-change records delivered to remote
	// shards for this stage's ghost refresh (0 on 1-shard deployments —
	// nothing crosses a boundary); Broadcast is the router-side
	// bucketing/sort time spent producing the delivery lists.
	Records   int
	Bytes     int64
	Broadcast time.Duration
	// Makespan is max over Shards of Compute.
	Makespan time.Duration
	Shards   []RoundShardSpan
}

// RoundTrace is the flight record of one BSP round. Written by the apply
// goroutine while the round is in flight and frozen before it is recorded;
// readers only ever see recorded (immutable) traces.
type RoundTrace struct {
	// ID is the round's trace ID. Request traces covering the round carry
	// the same ID, so /v1/traces and /v1/rounds can be joined; what happened
	// to a request before its round (queueing, journal, fusing) is in the
	// stage marks of its request trace.
	ID uint64
	// Start is when the writer handed the fused batch to the router.
	Start time.Time
	// Reqs, Edges and VUps size the round: requests fused, logical edge
	// changes and vertex updates across them.
	Reqs, Edges, VUps int
	// Stages are the barrier stages in execution order.
	Stages []RoundStageSpan
	// Records and Bytes total the cross-shard broadcast volume of the
	// round (all stages).
	Records int
	Bytes   int64
	// Total is Start→published (all shards).
	Total time.Duration
}

// BSPTime sums the stage makespans — the barrier-synchronised portion of
// the round.
func (t *RoundTrace) BSPTime() time.Duration {
	var d time.Duration
	for _, st := range t.Stages {
		d += st.Makespan
	}
	return d
}

// BroadcastTime sums the router-side record merge/sort time between stages.
func (t *RoundTrace) BroadcastTime() time.Duration {
	var d time.Duration
	for _, st := range t.Stages {
		d += st.Broadcast
	}
	return d
}

// shardComputes returns each shard's total compute across stages (nil for
// an empty trace).
func (t *RoundTrace) shardComputes() []time.Duration {
	if len(t.Stages) == 0 {
		return nil
	}
	out := make([]time.Duration, len(t.Stages[0].Shards))
	for _, st := range t.Stages {
		for i, sh := range st.Shards {
			if i < len(out) {
				out[i] += sh.Compute
			}
		}
	}
	return out
}

// Straggler is the shard with the largest total compute — the one the
// others waited for. -1 for an empty trace.
func (t *RoundTrace) Straggler() int {
	comp := t.shardComputes()
	if len(comp) == 0 {
		return -1
	}
	best := 0
	for i, c := range comp {
		if c > comp[best] {
			best = i
		}
	}
	return best
}

// StragglerSkew is max/mean shard compute — 1.0 means perfectly balanced
// stages, 2.0 means the straggler worked twice the average (and everyone
// else paid the difference as barrier wait).
func (t *RoundTrace) StragglerSkew() float64 {
	comp := t.shardComputes()
	if len(comp) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, c := range comp {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(comp))
	return float64(max) / mean
}

// BarrierShare is the fraction of participating shard-time spent blocked on
// barriers: Σ barrier / (Σ barrier + Σ compute) over every non-skipped
// shard-stage span. With full participation this equals the earlier
// 1 − mean(shard compute)/BSP-time formulation exactly (both reduce to
// W/(W+C)); shards whose layer call the router skipped contribute neither
// wait nor compute — an idle shard is not waiting, so counting it would
// inflate the share precisely when idle-skipping is doing its job. 0 on a
// 1-shard deployment.
func (t *RoundTrace) BarrierShare() float64 {
	var wait, comp time.Duration
	for _, st := range t.Stages {
		for _, sh := range st.Shards {
			if sh.Skipped {
				continue
			}
			wait += sh.Barrier
			comp += sh.Compute
		}
	}
	if wait+comp <= 0 {
		return 0
	}
	return float64(wait) / float64(wait+comp)
}

// RoundShardJSON is one shard's slice of a RoundStageJSON.
type RoundShardJSON struct {
	Shard     int     `json:"shard"`
	ComputeUS float64 `json:"compute_us"`
	BarrierUS float64 `json:"barrier_us"`
	GhostUS   float64 `json:"ghost_us"`
	Events    int     `json:"events"`
	GhostRows int     `json:"ghost_rows,omitempty"`
	Skipped   bool    `json:"skipped,omitempty"`
}

// RoundStageJSON is one barrier stage of a RoundJSON.
type RoundStageJSON struct {
	Name        string           `json:"stage"`
	Records     int              `json:"records,omitempty"`
	Bytes       int64            `json:"bytes,omitempty"`
	BroadcastUS float64          `json:"broadcast_us"`
	MakespanUS  float64          `json:"makespan_us"`
	Shards      []RoundShardJSON `json:"shards"`
}

// RoundJSON is a round trace as GET /v1/rounds serves it and a bundle's
// rounds.json holds it; LoadDump reads bundles back into it.
type RoundJSON struct {
	RoundID       string           `json:"round_id"`
	Start         time.Time        `json:"start"`
	Reqs          int              `json:"requests"`
	Edges         int              `json:"edges,omitempty"`
	VUps          int              `json:"vertex_updates,omitempty"`
	BSPUS         float64          `json:"bsp_us"`
	BroadcastUS   float64          `json:"broadcast_us"`
	TotalUS       float64          `json:"total_us"`
	Records       int              `json:"records"`
	Bytes         int64            `json:"bytes"`
	Straggler     int              `json:"straggler"`
	BarrierShare  float64          `json:"barrier_share"`
	StragglerSkew float64          `json:"straggler_skew"`
	Stages        []RoundStageJSON `json:"stages"`
}

// MarshalJSON renders the round trace for GET /v1/rounds: the whole-round
// attribution (straggler, barrier share, skew) and the
// per-stage per-shard breakdown.
func (t *RoundTrace) MarshalJSON() ([]byte, error) {
	out := RoundJSON{
		RoundID:       TraceIDString(t.ID),
		Start:         t.Start,
		Reqs:          t.Reqs,
		Edges:         t.Edges,
		VUps:          t.VUps,
		BSPUS:         us(t.BSPTime()),
		BroadcastUS:   us(t.BroadcastTime()),
		TotalUS:       us(t.Total),
		Records:       t.Records,
		Bytes:         t.Bytes,
		Straggler:     t.Straggler(),
		BarrierShare:  t.BarrierShare(),
		StragglerSkew: t.StragglerSkew(),
	}
	for _, st := range t.Stages {
		sj := RoundStageJSON{
			Name:        st.Name,
			Records:     st.Records,
			Bytes:       st.Bytes,
			BroadcastUS: us(st.Broadcast),
			MakespanUS:  us(st.Makespan),
			Shards:      make([]RoundShardJSON, len(st.Shards)),
		}
		for i, sh := range st.Shards {
			sj.Shards[i] = RoundShardJSON{
				Shard:     i,
				ComputeUS: us(sh.Compute),
				BarrierUS: us(sh.Barrier),
				GhostUS:   us(sh.Ghost),
				Events:    sh.Events,
				GhostRows: sh.GhostRows,
				Skipped:   sh.Skipped,
			}
		}
		out.Stages = append(out.Stages, sj)
	}
	return json.Marshal(out)
}
