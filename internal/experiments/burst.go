package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/server"
)

// BurstMode is one half of the burst comparison: the sustained-throughput
// numbers with server-side coalescing off or on.
type BurstMode struct {
	Coalescing    bool
	Updates       int
	Duration      time.Duration
	UpdatesPerSec float64
	AckP50        time.Duration
	AckP99        time.Duration
	// Coalescing activity (zero when off): engine flushes covering the
	// updates, achieved mean fusion factor, conflict stalls.
	Batches   int64
	MeanFused float64
	Stalls    int64
}

// BurstResult reports the sustained-burst throughput scenario: a pipelined
// client keeps Depth conflict-free single-change updates in flight at once,
// so the pipeline always has ≈Depth requests queued behind the in-flight
// one — the regime server-side coalescing exists for.
type BurstResult struct {
	Dataset string
	Depth   int
	Waves   int
	// Hub is the flash-crowd target node every queued update is incident
	// to; HubDegree is its out-degree in the base graph.
	Hub       graph.NodeID
	HubDegree int
	Off, On   BurstMode
	// Speedup is On.UpdatesPerSec / Off.UpdatesPerSec.
	Speedup float64
}

// Render formats the burst report. The final line is stable and
// machine-parseable.
func (r BurstResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sustained burst (%s): %d waves x %d pipelined single-change updates (queue depth %d), flash crowd on node %d (degree %d)\n",
		r.Dataset, r.Waves, r.Depth, r.Depth, r.Hub, r.HubDegree)
	line := func(m BurstMode) {
		state := "off"
		if m.Coalescing {
			state = "on "
		}
		fmt.Fprintf(&b, "  coalescing %s: %d updates in %v (%.0f upd/s), ack p50 %v, p99 %v",
			state, m.Updates, m.Duration.Round(time.Millisecond), m.UpdatesPerSec,
			m.AckP50.Round(time.Microsecond), m.AckP99.Round(time.Microsecond))
		if m.Coalescing {
			fmt.Fprintf(&b, ", mean fused %.1f, stalls %d", m.MeanFused, m.Stalls)
		}
		b.WriteByte('\n')
	}
	line(r.Off)
	line(r.On)
	fmt.Fprintf(&b, "  burst-speedup: %.2fx updates/sec (on %.1f vs off %.1f)",
		r.Speedup, r.On.UpdatesPerSec, r.Off.UpdatesPerSec)
	return b.String()
}

// burstHubDegree is the out-degree burstHub aims for: high enough that the
// hub's neighbourhood recompute and fan-out dominate each update (the work
// a fused apply shares across the batch), low enough that the per-update
// cascade stays bounded — on scale-free graphs the top-degree hubs neighbour
// each other, and a flash crowd there makes every single update quadratic.
const burstHubDegree = 64

// burstHub picks the flash-crowd target: the node whose out-degree is
// closest to burstHubDegree (lowest ID on ties, so the pick is
// deterministic).
func burstHub(g *graph.Graph) graph.NodeID {
	hub := graph.NodeID(0)
	best := -1
	for u := 0; u < g.NumNodes(); u++ {
		d := g.OutDegree(graph.NodeID(u))
		gap := d - burstHubDegree
		if gap < 0 {
			gap = -gap
		}
		if best < 0 || gap < best {
			hub, best = graph.NodeID(u), gap
		}
	}
	return hub
}

// burstPools pre-generates one pool of absent hub-incident edges per
// in-flight stream — the flash-crowd shape of real bursts, where queued
// updates land on one popular node. Spokes are the highest-degree eligible
// nodes (the crowd of popular accounts piling onto the hub), distinct
// across all pools, so the streams never conflict (every request is
// compatible with every concurrently queued one: distinct logical edges,
// no feature rewrites) and each stream's insert/remove toggles are
// individually valid — yet the queued updates share the hub's
// neighbourhood, which is what a fused apply can exploit: the hub's
// recompute and fan-out run once per batch, while the popular spokes
// absorb the hub's message with little downstream propagation of their
// own.
func burstPools(g *graph.Graph, streams, poolSize int) (graph.NodeID, [][]graph.EdgeChange) {
	hub := burstHub(g)
	cand := make([]graph.NodeID, 0, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		v := graph.NodeID(u)
		if v != hub && !g.HasEdge(hub, v) {
			cand = append(cand, v)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if di, dj := g.OutDegree(cand[i]), g.OutDegree(cand[j]); di != dj {
			return di > dj
		}
		return cand[i] < cand[j]
	})
	pools := make([][]graph.EdgeChange, streams)
	k := 0
	for w := range pools {
		for len(pools[w]) < poolSize {
			pools[w] = append(pools[w], graph.EdgeChange{U: hub, V: cand[k], Insert: true})
			k++
		}
	}
	return hub, pools
}

// runBurstMode drives one coalescing mode on a fresh engine built from the
// shared base state, so both modes start bit-identical. The driver is a
// windowed pipelined client: each wave submits one single-change update per
// stream via ApplyAsync — len(pools) updates queued before any is applied —
// then collects every acknowledgement. Submitting from one goroutine is
// what guarantees the queue depth: ack-waiting worker goroutines would be
// serialised by the scheduler on small machines and never build a queue.
func runBurstMode(inst instance, model *gnn.Model, base *gnn.State,
	pools [][]graph.EdgeChange, waves int, coalescing bool) (BurstMode, error) {
	eng, err := inkstream.NewFromState(model, inst.G.Clone(), base.Clone(), nil, inkstream.Options{})
	if err != nil {
		return BurstMode{}, err
	}
	srv := server.New(eng, nil)
	defer srv.Close()
	srv.SetCoalescing(coalescing)

	depth := len(pools)
	lats := make([]time.Duration, 0, depth*waves)
	submitted := make([]time.Time, depth)
	dones := make([]<-chan error, depth)
	t0 := time.Now()
	for i := 0; i < waves; i++ {
		for w, pool := range pools {
			// Sweep each pool inserting, then sweep it removing: every
			// single-change update is valid in its stream's sequence.
			ch := pool[i%len(pool)]
			ch.Insert = (i/len(pool))%2 == 0
			submitted[w] = time.Now()
			d, err := srv.ApplyAsync(graph.Delta{ch}, nil)
			if err != nil {
				return BurstMode{}, fmt.Errorf("wave %d stream %d: %w", i, w, err)
			}
			dones[w] = d
		}
		for w, d := range dones {
			if err := <-d; err != nil {
				return BurstMode{}, fmt.Errorf("wave %d stream %d: %w", i, w, err)
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
	m := BurstMode{
		Coalescing:    coalescing,
		Updates:       len(lats),
		Duration:      dur,
		UpdatesPerSec: float64(len(lats)) / dur.Seconds(),
		AckP50:        q(0.50),
		AckP99:        q(0.99),
	}
	if st := srv.CoalesceStats(); st.Batches > 0 {
		m.Batches = st.Batches
		m.MeanFused = float64(st.Requests) / float64(st.Batches)
		m.Stalls = st.Stalls
	}
	return m, nil
}

// Burst runs the sustained-burst throughput scenario on the first
// configured dataset: a pipelined client keeps c.BurstDepth conflict-free
// single-change updates in flight flat out — all incident to one hub node,
// the flash-crowd shape of real bursts — first with coalescing off, then
// on. The coalescing run fuses what queues behind each in-flight update
// into one engine batch: the hub's neighbourhood recompute and fan-out run
// once per fused batch instead of once per request, on top of the fixed
// per-batch costs being amortised — the same economics the paper's ΔG
// batch-size sweep measures, applied to the serving pipeline.
func Burst(c Config) (BurstResult, error) {
	c = c.normalize()
	inst := c.build(c.Datasets[0])
	model := c.model(modelGCN, inst.X.Cols, gnn.AggMax)
	base, err := gnn.Infer(model, inst.G, inst.X, nil)
	if err != nil {
		return BurstResult{}, err
	}
	depth := c.BurstDepth
	waves := c.BurstUpdates / depth
	if waves < 1 {
		waves = 1
	}
	hub, pools := burstPools(inst.G, depth, 16)

	res := BurstResult{
		Dataset: inst.Spec.Name, Depth: depth, Waves: waves,
		Hub: hub, HubDegree: inst.G.OutDegree(hub),
	}
	if res.Off, err = runBurstMode(inst, model, base, pools, waves, false); err != nil {
		return BurstResult{}, err
	}
	if res.On, err = runBurstMode(inst, model, base, pools, waves, true); err != nil {
		return BurstResult{}, err
	}
	if res.Off.UpdatesPerSec > 0 {
		res.Speedup = res.On.UpdatesPerSec / res.Off.UpdatesPerSec
	}
	return res, nil
}
