package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// ShardPoint is the measured throughput of one shard count under the
// flash-crowd stream.
type ShardPoint struct {
	Shards        int
	Updates       int
	Duration      time.Duration
	UpdatesPerSec float64
	AckP50        time.Duration
	AckP99        time.Duration
	// Rounds is how many BSP rounds the stream fused into; Stalls the
	// rounds sealed early by a conflicting request.
	Rounds int64
	Stalls int64
	// CutFraction is the partition's bootstrap cut; BoundaryRecords the
	// records delivered to remote shards during the run, FilteredRecords
	// the deliveries the subscription filter suppressed, GhostRows the
	// ghost rows engines adopted (all 0 at 1 shard).
	CutFraction     float64
	BoundaryRecords int64
	FilteredRecords int64
	GhostRows       int64
	// BarrierShare/StragglerSkew/Straggler come from the round profiler's
	// cumulative critical-path attribution: the fraction of BSP time the
	// mean shard spent stalled at barriers, the mean max/mean compute skew,
	// and the shard most often on the critical path (-1 when unprofiled).
	// BoundaryShare is the boundary fraction of split-layer compute (0
	// under full broadcast — layers are not split).
	BarrierShare  float64
	StragglerSkew float64
	Straggler     int
	BoundaryShare float64
	// Speedup is UpdatesPerSec over the 1-shard point.
	Speedup float64
	// Reps is how many times the point was measured; the reported fields
	// are from the median rep by updates/sec and MinUpdatesPerSec is the
	// slowest rep (noise floor on loaded boxes).
	Reps             int
	MinUpdatesPerSec float64
	// BitExact reports whether every final embedding matched the 1-shard
	// deployment bitwise.
	BitExact bool
}

// ShardScalingResult reports the partitioned-serving scaling scenario: the
// identical pipelined flash-crowd stream pushed through deployments of
// increasing shard counts.
type ShardScalingResult struct {
	Dataset   string
	Depth     int
	Waves     int
	Hub       graph.NodeID
	HubDegree int
	// Strategy and FullBroadcast name the exchange configuration every
	// point ran under; Workload is "crowd" (flash crowd on the hub) or
	// "scatter" (disjoint edge streams across the graph).
	Strategy      string
	FullBroadcast bool
	Workload      string
	GOMAXPROCS    int
	Points        []ShardPoint
}

// Render formats the scaling report. The per-point `shard-scaling:` lines
// are stable and machine-parseable.
func (r ShardScalingResult) Render() string {
	var b strings.Builder
	mode := "filtered"
	if r.FullBroadcast {
		mode = "full-broadcast"
	}
	if r.Workload == "scatter" {
		fmt.Fprintf(&b, "Shard scaling (%s): %d waves x %d pipelined single-change updates, scattered disjoint edge streams, partition=%s exchange=%s, GOMAXPROCS=%d\n",
			r.Dataset, r.Waves, r.Depth, r.Strategy, mode, r.GOMAXPROCS)
	} else {
		fmt.Fprintf(&b, "Shard scaling (%s): %d waves x %d pipelined single-change updates, flash crowd on node %d (degree %d), partition=%s exchange=%s, GOMAXPROCS=%d\n",
			r.Dataset, r.Waves, r.Depth, r.Hub, r.HubDegree, r.Strategy, mode, r.GOMAXPROCS)
	}
	for _, p := range r.Points {
		exact := "bit-exact"
		if !p.BitExact {
			exact = "DIVERGED"
		}
		recsPerRound, ghostPerRound := 0.0, 0.0
		if p.Rounds > 0 {
			recsPerRound = float64(p.BoundaryRecords) / float64(p.Rounds)
			ghostPerRound = float64(p.GhostRows) / float64(p.Rounds)
		}
		fmt.Fprintf(&b, "  shard-scaling: shards=%d partition=%s exchange=%s reps=%d upd/s=%.1f min-upd/s=%.1f p50=%v p99=%v speedup=%.2fx rounds=%d stalls=%d cut=%.3f boundary-records=%d bcast-rd=%.1f filtered-records=%d ghost-rd=%.1f boundary-share=%.3f barrier-share=%.3f straggler-skew=%.2f straggler=s%d %s\n",
			p.Shards, r.Strategy, mode, p.Reps, p.UpdatesPerSec, p.MinUpdatesPerSec,
			p.AckP50.Round(time.Microsecond),
			p.AckP99.Round(time.Microsecond), p.Speedup, p.Rounds, p.Stalls,
			p.CutFraction, p.BoundaryRecords, recsPerRound, p.FilteredRecords,
			ghostPerRound, p.BoundaryShare, p.BarrierShare, p.StragglerSkew,
			p.Straggler, exact)
	}
	return strings.TrimRight(b.String(), "\n")
}

// runShardCount drives the flash-crowd stream through one deployment size
// and returns its point plus the final embeddings for the exactness check.
func runShardCount(c Config, inst instance, model *gnn.Model, pools [][]graph.EdgeChange,
	waves, shards int) (ShardPoint, []tensor.Vector, error) {
	router, err := shard.New(model, inst.G, inst.X, shard.Config{
		Shards:            shards,
		PartitionStrategy: c.PartitionStrategy,
		FullBroadcast:     c.FullBroadcast,
	})
	if err != nil {
		return ShardPoint{}, nil, err
	}
	rt := server.NewOn(router)
	defer rt.Close()

	depth := len(pools)
	lats := make([]time.Duration, 0, depth*waves)
	submitted := make([]time.Time, depth)
	dones := make([]<-chan error, depth)
	t0 := time.Now()
	for i := 0; i < waves; i++ {
		for w, pool := range pools {
			ch := pool[i%len(pool)]
			ch.Insert = (i/len(pool))%2 == 0
			submitted[w] = time.Now()
			if dones[w], err = rt.ApplyAsync(graph.Delta{ch}, nil); err != nil {
				return ShardPoint{}, nil, fmt.Errorf("wave %d stream %d: %w", i, w, err)
			}
		}
		for w, d := range dones {
			if err := <-d; err != nil {
				return ShardPoint{}, nil, fmt.Errorf("wave %d stream %d: %w", i, w, err)
			}
			lats = append(lats, time.Since(submitted[w]))
		}
	}
	dur := time.Since(t0)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	st := rt.Stats()
	point := ShardPoint{
		Shards:          shards,
		Updates:         len(lats),
		Duration:        dur,
		UpdatesPerSec:   float64(len(lats)) / dur.Seconds(),
		AckP50:          q(0.50),
		AckP99:          q(0.99),
		Rounds:          st.Rounds,
		Stalls:          st.Coalesce.Stalls,
		CutFraction:     st.CutFraction,
		BoundaryRecords: st.BoundaryRecords,
		FilteredRecords: st.FilteredRecords,
		GhostRows:       st.GhostRows,
		Straggler:       -1,
	}
	if rp := st.RoundProfile; rp != nil {
		point.BarrierShare = rp.BarrierShare
		point.StragglerSkew = rp.MeanStragglerSkew
		point.Straggler = rp.Straggler
		point.BoundaryShare = rp.BoundaryShare
	}
	rows := make([]tensor.Vector, inst.G.NumNodes())
	for v := range rows {
		row, _, ok := rt.ReadEmbedding(v)
		if !ok {
			return ShardPoint{}, nil, fmt.Errorf("node %d unreadable after run", v)
		}
		rows[v] = row.Clone()
	}
	return point, rows, nil
}

// scatterPools builds the scattered-stream workload: `streams` disjoint
// pools of initially-absent edges whose endpoints are all distinct, so
// pipelined waves never conflict and the touched neighborhoods are spread
// across the whole graph instead of concentrated on one hub. This is the
// steady-state counterpoint to the flash crowd: a locality-aware partition
// keeps most touched neighborhoods co-resident, which is exactly what
// subscription-filtered delivery converts into suppressed records.
func scatterPools(g *graph.Graph, streams, poolSize int, seed int64) [][]graph.EdgeChange {
	rng := rand.New(rand.NewSource(seed + 4242))
	n := g.NumNodes()
	used := make([]bool, n)
	pools := make([][]graph.EdgeChange, streams)
	for w := range pools {
		for len(pools[w]) < poolSize {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v || used[u] || used[v] || g.HasEdge(u, v) {
				continue
			}
			used[u], used[v] = true, true
			pools[w] = append(pools[w], graph.EdgeChange{U: u, V: v, Insert: true})
		}
	}
	return pools
}

// runShardCountReps measures one shard count c.ShardReps times and returns
// the median point by updates/sec (with the slowest rep recorded as
// MinUpdatesPerSec) plus the final embeddings, which are identical across
// reps — the stream is deterministic.
func runShardCountReps(c Config, inst instance, model *gnn.Model, pools [][]graph.EdgeChange,
	waves, shards int) (ShardPoint, []tensor.Vector, error) {
	points := make([]ShardPoint, 0, c.ShardReps)
	var rows []tensor.Vector
	for rep := 0; rep < c.ShardReps; rep++ {
		p, r, err := runShardCount(c, inst, model, pools, waves, shards)
		if err != nil {
			return ShardPoint{}, nil, err
		}
		points = append(points, p)
		rows = r
	}
	sort.Slice(points, func(i, j int) bool {
		return points[i].UpdatesPerSec < points[j].UpdatesPerSec
	})
	point := points[len(points)/2]
	point.Reps = len(points)
	point.MinUpdatesPerSec = points[0].UpdatesPerSec
	return point, rows, nil
}

// ShardScaling runs the partitioned-serving scenario on the first configured
// dataset: the identical flash-crowd stream (the burst scenario's workload)
// through shard.Router deployments (behind the server pipeline) at every
// configured shard count,
// reporting updates/sec and ack latency per count, the speedup over the
// 1-shard deployment, and whether every final embedding stayed bit-exact
// across deployment shapes (DESIGN.md §11.3).
func ShardScaling(c Config) (ShardScalingResult, error) {
	c = c.normalize()
	inst := c.build(c.Datasets[0])
	model := c.model(modelGCN, inst.X.Cols, gnn.AggMax)
	depth := c.BurstDepth
	waves := c.BurstUpdates / depth
	if waves < 1 {
		waves = 1
	}
	var hub graph.NodeID = -1
	var pools [][]graph.EdgeChange
	if c.ShardWorkload == "scatter" {
		pools = scatterPools(inst.G, depth, 16, c.Seed)
	} else {
		hub, pools = burstPools(inst.G, depth, 16)
	}

	strategy := c.PartitionStrategy
	if strategy == "" {
		strategy = "hash"
	}
	workload := c.ShardWorkload
	if workload == "" {
		workload = "crowd"
	}
	res := ShardScalingResult{
		Dataset: inst.Spec.Name, Depth: depth, Waves: waves,
		Hub: hub, Strategy: strategy, FullBroadcast: c.FullBroadcast,
		Workload: workload, GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if hub >= 0 {
		res.HubDegree = inst.G.OutDegree(hub)
	}
	var ref []tensor.Vector
	for _, s := range c.ShardCounts {
		point, rows, err := runShardCountReps(c, inst, model, pools, waves, s)
		if err != nil {
			return ShardScalingResult{}, fmt.Errorf("shards=%d: %w", s, err)
		}
		if ref == nil {
			ref = rows
			point.BitExact = true
			if point.Shards != 1 {
				// Without a 1-shard reference the exactness column is
				// meaningless; only claim it when the baseline ran.
				point.BitExact = false
			}
		} else {
			point.BitExact = true
			for v, row := range rows {
				if !row.Equal(ref[v]) {
					point.BitExact = false
					break
				}
				_ = v
			}
		}
		if len(res.Points) > 0 && res.Points[0].Shards == 1 && res.Points[0].UpdatesPerSec > 0 {
			point.Speedup = point.UpdatesPerSec / res.Points[0].UpdatesPerSec
		} else if point.Shards == 1 {
			point.Speedup = 1
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}
