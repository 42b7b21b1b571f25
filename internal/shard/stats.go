package shard

import (
	"fmt"
	"math"

	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/server"
)

// FillStats adds the sharding section to a /v1/stats body, and the
// per-condition visit and event totals summed across shards. Everything is
// read from published snapshots and atomics — safe from any goroutine,
// lock-free.
func (rt *Router) FillStats(resp *server.StatsResponse) {
	sec := &server.ShardingStats{
		Rounds:            rt.rounds.Load(),
		PartitionStrategy: rt.strategy,
		CutFraction:       rt.cut.CutFraction,
		BoundaryRecords:   rt.boundaryRecs.Load(),
		BoundaryBytes:     rt.boundaryBytes.Load(),
		FilteredRecords:   rt.filteredRecs.Load(),
		GhostRows:         rt.ghostRows.Load(),
		Corrupt:           rt.Corrupt(),
		FailStop:          rt.failStop.Load(),
	}
	if n := rt.profiled.Load(); n > 0 {
		rp := &server.RoundProfileStats{
			Rounds:            n,
			MeanStragglerSkew: float64(rt.skewMilli.Load()) / 1000 / float64(n),
			Straggler:         -1,
			StragglerRounds:   make([]int64, len(rt.stragglerRounds)),
		}
		if bsp := rt.bspNS.Load(); bsp > 0 {
			rp.BarrierShare = float64(rt.barrierNS.Load()) / float64(bsp)
			rp.BroadcastShare = float64(rt.broadcastNS.Load()) / float64(bsp)
		}
		if split := rt.boundaryNS.Load() + rt.interiorNS.Load(); split > 0 {
			rp.BoundaryShare = float64(rt.boundaryNS.Load()) / float64(split)
		}
		var best int64 = -1
		for i := range rt.stragglerRounds {
			c := rt.stragglerRounds[i].Load()
			rp.StragglerRounds[i] = c
			if c > best {
				best, rp.Straggler = c, i
			}
		}
		sec.RoundProfile = rp
	}
	counts := rt.part.Counts()
	for i, s := range rt.shards {
		snap := s.eng.Snapshot()
		cs := s.c.Snapshot()
		sec.PerShard = append(sec.PerShard, server.ShardStats{
			Shard:        i,
			Epoch:        snap.Epoch,
			Rounds:       snap.AppliedBatches,
			OwnedNodes:   counts[i],
			Arcs:         snap.Edges,
			Events:       cs.EventsProcessed,
			NodesVisited: cs.NodesVisited,
		})
	}
	for name, n := range rt.conditions() {
		if n > 0 {
			resp.Conditions[name] = n
		}
	}
	resp.Events = rt.events()
	resp.ShardingStats = sec
}

// conditions sums the shards' published per-condition visit totals by name.
func (rt *Router) conditions() map[string]int64 {
	counts := make(map[string]int64)
	for _, s := range rt.shards {
		st := s.eng.Snapshot().Conditions
		for c := inkstream.CondPruned; c <= inkstream.CondSelfOnly; c++ {
			counts[c.String()] += st.Counts[c]
		}
	}
	return counts
}

// FillHealth reports the fail-stop latch as a degraded reason for /healthz.
func (rt *Router) FillHealth(resp *server.HealthzResponse) {
	if fs := rt.failStop.Load(); fs != nil {
		resp.Reasons = append(resp.Reasons, fmt.Sprintf(
			"writes fail-stopped at round %d (%s); reads serve the last published snapshots",
			fs.Round, fs.Err))
	}
}

// Mount registers what only a partitioned deployment has on the server's
// surface: the GET /v1/rounds route, the router- and shard-scoped metric
// families, and the round series of /v1/timeseries. The families every
// deployment shape exports (epoch, lag, latency, coalescing, ...) are the
// server's.
func (rt *Router) Mount(sf server.Surface) {
	rt.obs = sf.Observer
	sf.Mux.HandleFunc("GET /v1/rounds", rt.handleRounds)
	ts := sf.Sampler
	ts.HistQuantile("round_p99_ms", rt.roundDur, 0.99, 1e-6)
	ts.Gauge("epoch_skew", func() float64 { sh := rt.Shape(); return float64(sh.MaxEpoch - sh.Epoch) })
	ts.Gauge("barrier_share", rt.lastShare)

	r := sf.Registry
	r.GaugeFunc("inkstream_router_cut_fraction",
		"Fraction of arcs crossing shard boundaries at bootstrap (partition quality).",
		func() float64 { return rt.cut.CutFraction })
	r.CounterFunc("inkstream_boundary_records_total",
		"Message-change records delivered to remote shards for ghost-row refresh and fan-out regeneration.",
		func() float64 { return float64(rt.boundaryRecs.Load()) })
	r.CounterFunc("inkstream_boundary_bytes_total",
		"Payload bytes carried by cross-shard record deliveries.",
		func() float64 { return float64(rt.boundaryBytes.Load()) })
	r.CounterFunc("inkstream_filtered_records_total",
		"Remote record deliveries suppressed by the subscription filter.",
		func() float64 { return float64(rt.filteredRecs.Load()) })
	r.CounterFunc("inkstream_ghost_rows_total",
		"Ghost message rows engines adopted from delivered cross-shard records.",
		func() float64 { return float64(rt.ghostRows.Load()) })
	r.Histogram("inkstream_boundary_round_records",
		"Cross-shard records exchanged per round (all layers).",
		1, rt.recSize)
	r.CounterFunc("inkstream_events_processed_total",
		"InkStream propagation events consumed, summed across shards.",
		func() float64 { return float64(rt.events()) })
	r.LabeledCounterFunc("inkstream_node_visits_total",
		"Per-layer node visits by InkStream condition, summed across shards.",
		func() []obs.LabeledValue { return obs.SortedLabeled("condition", rt.conditions()) })
	perShard := func(f func(i int, s *shardState) float64) func() []obs.LabeledValue {
		return func() []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(rt.shards))
			for i, s := range rt.shards {
				out[i] = obs.LabeledValue{Labels: shardLabel(i), Value: f(i, s)}
			}
			return out
		}
	}
	r.LabeledGaugeFunc("inkstream_shard_epoch",
		"Published snapshot epoch per shard.",
		perShard(func(_ int, s *shardState) float64 { return float64(s.eng.Snapshot().Epoch) }))
	owned := rt.part.Counts() // the partition is fixed at bootstrap
	r.LabeledGaugeFunc("inkstream_shard_owned_nodes",
		"Vertices owned per shard.",
		perShard(func(i int, _ *shardState) float64 { return float64(owned[i]) }))
	r.LabeledCounterFunc("inkstream_shard_rounds_total",
		"Update rounds reflected in each shard's published snapshot.",
		perShard(func(_ int, s *shardState) float64 { return float64(s.eng.Snapshot().AppliedBatches) }))
	r.LabeledCounterFunc("inkstream_shard_events_total",
		"InkStream propagation events consumed per shard.",
		perShard(func(_ int, s *shardState) float64 { return float64(s.c.EventsProcessed.Load()) }))
	r.LabeledCounterFunc("inkstream_shard_node_visits_total",
		"Node visits per shard (all conditions).",
		perShard(func(_ int, s *shardState) float64 { return float64(s.c.NodesVisited.Load()) }))

	// Round profiler: critical-path attribution of BSP wall-time
	// (flight.go). compute/barrier are per-shard means, so their sum tracks
	// inkstream_round_bsp_seconds_total and barrier ÷ bsp is the cumulative
	// barrier share.
	r.Histogram("inkstream_round_duration_seconds",
		"One BSP round, open → all shards published; exemplars carry the round ID for /v1/rounds lookup.",
		1e-9, rt.roundDur)
	r.CounterFunc("inkstream_rounds_profiled_total",
		"Rounds captured by the round profiler.",
		func() float64 { return float64(rt.profiled.Load()) })
	r.CounterFunc("inkstream_round_bsp_seconds_total",
		"Barrier-stage wall-time (sum of per-stage makespans) across profiled rounds.",
		func() float64 { return float64(rt.bspNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_compute_seconds_total",
		"Mean participating-shard compute inside barrier stages across profiled rounds.",
		func() float64 { return float64(rt.computeNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_barrier_wait_seconds_total",
		"Mean participating-shard barrier wait (stage makespan minus own compute) across profiled rounds.",
		func() float64 { return float64(rt.barrierNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_broadcast_seconds_total",
		"Router-side record bucketing time across profiled rounds.",
		func() float64 { return float64(rt.broadcastNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_boundary_seconds_total",
		"Boundary-phase shard compute across profiled rounds.",
		func() float64 { return float64(rt.boundaryNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_interior_seconds_total",
		"Interior-phase shard compute across profiled rounds.",
		func() float64 { return float64(rt.interiorNS.Load()) * 1e-9 })
	r.GaugeFunc("inkstream_round_barrier_share",
		"Barrier-wait fraction of BSP time in the most recent profiled round.",
		rt.lastShare)
	r.GaugeFunc("inkstream_round_straggler_skew",
		"Max/mean shard compute in the most recent profiled round (1 = balanced).",
		func() float64 { return math.Float64frombits(rt.lastSkew.Load()) })
	r.LabeledCounterFunc("inkstream_shard_straggler_rounds_total",
		"Rounds each shard was the straggler of (slowest total compute).",
		perShard(func(i int, _ *shardState) float64 { return float64(rt.stragglerRounds[i].Load()) }))
}

func shardLabel(i int) string { return fmt.Sprintf(`shard="%d"`, i) }

// ArmBlackBox is the router's contribution to the server's incident black
// box (DESIGN.md §9.5): the one incident signal only a sharded deployment
// has — the fail-stop latch tripped by a failed round — triggers a capture,
// and every bundle carries the round profiles and, after a fail-stop, a
// failstop.json with the failing round's forensics.
func (rt *Router) ArmBlackBox(bb *obs.BlackBox) {
	rt.blackbox = bb
	bb.AddFile("rounds.json", func() any {
		if p := rt.profiler; p != nil {
			return p.Traces()
		}
		return nil
	})
	bb.AddFile("failstop.json", func() any {
		if fs := rt.failStop.Load(); fs != nil {
			return fs
		}
		return nil
	})
}
