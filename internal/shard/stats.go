package shard

import (
	"fmt"

	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/server"
)

// FillStats adds the sharding section to a /v1/stats body — the partition,
// its cross-shard traffic, the fail-stop forensics and the per-shard slices
// — and the bytes fetched summed across shards. Counts /metrics already
// serves (events, visits, rounds, boundary records, ghost rows, round
// attribution) are not repeated here. Everything is read from published
// snapshots and atomics — safe from any goroutine, lock-free.
func (rt *Router) FillStats(resp *server.StatsResponse) {
	sec := &server.ShardingStats{
		PartitionStrategy: rt.strategy,
		CutFraction:       rt.cut.CutFraction,
		BoundaryBytes:     rt.boundaryBytes.Load(),
		FilteredRecords:   rt.filteredRecs.Load(),
		FailStop:          rt.failStop.Load(),
	}
	counts := rt.part.Counts()
	for i, s := range rt.shards {
		snap := s.eng.Snapshot()
		cs := s.c.Snapshot()
		resp.BytesFetched += cs.BytesFetched
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
// surface: the GET /v1/rounds route, the barrier_share series and the router
// families the inkstat -watch shard columns read (DESIGN.md §9.1). The
// families every deployment shape exports (epoch, lag, latency, coalescing,
// ...) are the server's.
func (rt *Router) Mount(sf server.Surface) {
	rt.obs = sf.Observer
	sf.Mux.HandleFunc("GET /v1/rounds", rt.handleRounds)
	sf.Sampler.Gauge("barrier_share", rt.lastShare)

	r := sf.Registry
	r.GaugeFunc("inkstream_router_cut_fraction",
		"Fraction of arcs crossing shard boundaries at bootstrap (partition quality).",
		func() float64 { return rt.cut.CutFraction })
	r.CounterFunc("inkstream_boundary_records_total",
		"Message-change records delivered to remote shards for ghost-row refresh and fan-out regeneration.",
		func() float64 { return float64(rt.boundaryRecs.Load()) })
	r.CounterFunc("inkstream_ghost_rows_total",
		"Ghost message rows engines adopted from delivered cross-shard records.",
		func() float64 { return float64(rt.ghostRows.Load()) })
	r.CounterFunc("inkstream_events_processed_total",
		"InkStream propagation events consumed, summed across shards.",
		func() float64 { return float64(rt.events()) })
	r.LabeledCounterFunc("inkstream_node_visits_total",
		"Per-layer node visits by InkStream condition, summed across shards.",
		func() []obs.LabeledValue { return obs.SortedLabeled("condition", rt.conditions()) })

	// Round profiler: critical-path attribution of BSP wall-time
	// (flight.go). compute/barrier are per-shard means, so barrier ÷
	// (barrier + compute) is the cumulative barrier share.
	r.CounterFunc("inkstream_round_compute_seconds_total",
		"Mean participating-shard compute inside barrier stages across profiled rounds.",
		func() float64 { return float64(rt.computeNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_barrier_wait_seconds_total",
		"Mean participating-shard barrier wait (stage makespan minus own compute) across profiled rounds.",
		func() float64 { return float64(rt.barrierNS.Load()) * 1e-9 })
	r.LabeledCounterFunc("inkstream_shard_straggler_rounds_total",
		"Rounds each shard was the straggler of (slowest total compute).",
		func() []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(rt.stragglerRounds))
			for i := range rt.stragglerRounds {
				out[i] = obs.LabeledValue{Labels: fmt.Sprintf(`shard="%d"`, i), Value: float64(rt.stragglerRounds[i].Load())}
			}
			return out
		})
}

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
