// Package shard implements partitioned multi-engine serving (DESIGN.md
// §7.4): N independent InkStream engines, each owning a vertex partition,
// behind a router that fans mixed update batches out into per-shard
// sub-batches and serves reads from the owning shard's published snapshot.
//
// Partitioning model (RIPPLE-style): vertices are assigned to shards; shard
// s's engine holds a directed shard graph containing every in-arc of every
// vertex s owns, and full-size state matrices whose remote message rows
// are ghost rows. Updates execute as BSP rounds
// in layer lockstep: every shard applies its sub-batch, each layer is one
// engine call per shard closed by a barrier, and after it every
// message-change record is delivered, in node order, to its producer and to
// the shards holding an arc from its source (subscribe.go), which refresh
// their ghost rows and regenerate the fan-out over their own arcs in the
// next layer's call. Because the regenerated per-target event sequence equals the
// single-engine sequence restricted to local targets (in the same arrival
// order), an N-shard deployment is bit-exact against a standalone engine —
// for monotonic and accumulative aggregators alike. One shard is the
// degenerate case of the same protocol: nothing is subscribed, so nothing
// is delivered remotely.
//
// The router is not a server: it is the apply step of internal/server's one
// write pipeline (server.Backend). The pipeline submits, journals, fuses
// and acknowledges; the router splits each fused batch per shard, has every
// shard validate its sub-batch against the graph it holds, executes the
// batch as one BSP round and publishes every shard's snapshot — and mounts
// its own surface (GET /v1/rounds, the per-shard and per-round metric
// families, and the sharding section of /v1/stats: partition, cross-shard
// traffic /metrics does not count, fail-stop record, per-shard slices) on
// the server's. It keeps no copy of the graph or the state: the shards
// hold both.
//
// Failure semantics are fail-stop: validating every sub-batch before any
// shard applies makes shard applies infallible, so if one fails anyway the
// deployment marks itself corrupt, rejects further mutations, and keeps
// serving reads from the last published snapshots (DESIGN.md §7.6).
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tensor"
)

// ErrCorrupt is returned for mutations once a round has failed — a shard
// apply that failed although every shard had validated its sub-batch. The
// router is fail-stop for writes but keeps serving reads (DESIGN.md §7.6).
// It wraps server.ErrUnavailable, so the HTTP layer answers 503.
var ErrCorrupt = fmt.Errorf("shard: deployment corrupt after failed round; writes rejected (%w)", server.ErrUnavailable)

// Config tunes a partitioned deployment.
type Config struct {
	// Shards is the number of engine shards (≥ 1).
	Shards int
	// PartitionStrategy names the partitioner: "hash" (default), "block" or
	// "greedy" (locality-aware streaming greedy, graph.NewGreedyPartition).
	// Resolved over the bootstrap graph via graph.PartitionByStrategy.
	PartitionStrategy string
}

// round is one BSP round: the per-shard sub-batches of one fused batch.
type round struct {
	subDelta []graph.Delta
	subVups  [][]inkstream.VertexUpdate
	// prof is the round's profiler trace (nil with profiling off).
	prof *obs.RoundTrace
}

// shardState is one engine shard with its private counters.
type shardState struct {
	eng *inkstream.Engine
	c   *metrics.Counters
}

// Router owns the shards and executes rounds. Apply is for one goroutine at
// a time (the server's apply stage); everything else is safe from any
// goroutine.
type Router struct {
	model      *gnn.Model
	part       *graph.Partition
	strategy   string // partition strategy name (for stats)
	undirected bool
	shards     []*shardState
	cut        graph.CutStats

	// Subscription-filtered delivery state (apply goroutine only, engines
	// idle whenever it is touched). subs[s][u] counts the live arcs from
	// remote vertex u into shard-s-owned vertices: shard s consumes u's
	// ghost rows iff the count is positive.
	subs []map[graph.NodeID]int

	// failStop is the fail-stop latch: nil while healthy, else the forensics
	// of the round that tripped it (round ID, error, time). First failure
	// wins.
	failStop atomic.Pointer[obs.FailStopInfo]

	boundaryRecs  atomic.Int64 // message-change records delivered to remote shards
	boundaryBytes atomic.Int64 // payload bytes those deliveries carried
	filteredRecs  atomic.Int64 // remote deliveries the subscription filter suppressed
	ghostRows     atomic.Int64 // ghost rows engines actually adopted from deliveries

	// obs is the server's observer (set by Mount; nil before, which
	// disables recording): one RecordLatency per round, the way an engine
	// records one per batch.
	obs *obs.Observer

	// Round profiler (flight.go) and the black box the fail-stop latch
	// triggers (stats.go; nil until the server arms it).
	profiler *obs.Ring[obs.RoundTrace]
	roundSeq atomic.Uint64 // round IDs (profiling or not)
	blackbox *obs.BlackBox

	// Cumulative critical-path attribution, accumulated per profiled
	// round (flight.go): compute/barrier are per-shard means, and
	// stragglerRounds[i] counts the rounds shard i was the straggler of.
	// lastBarrierShare holds the most recent round's barrier share as
	// Float64bits.
	computeNS        atomic.Int64
	barrierNS        atomic.Int64
	stragglerRounds  []atomic.Int64
	lastBarrierShare atomic.Uint64

	// deliv holds the per-destination delivery lists of the next layer,
	// reused across layers and rounds: a layer stage has returned before its
	// records are bucketed, so nothing still reads the previous lists.
	deliv [][]inkstream.MessageChange
}

// New bootstraps a partitioned deployment: one full-graph inference over g
// and x, then per shard a directed shard graph, a state and a
// partition-aware engine. The last shard takes the bootstrap state itself,
// the others a clone each. g is the logical bootstrap graph (directed or
// undirected); the router expands undirected edges into arcs when routing.
// Every shard publishes epoch 1 (the bootstrapped state) before New returns.
func New(model *gnn.Model, g *graph.Graph, x *tensor.Matrix, cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	part, err := graph.PartitionByStrategy(cfg.PartitionStrategy, g, cfg.Shards)
	if err != nil {
		return nil, err
	}
	strategy := cfg.PartitionStrategy
	if strategy == "" {
		strategy = "hash"
	}
	base, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		return nil, fmt.Errorf("shard: bootstrap inference: %w", err)
	}

	rt := &Router{
		model:      model,
		part:       part,
		strategy:   strategy,
		undirected: g.Undirected,
		cut:        part.Cut(g),
	}
	// Last 256 rounds profiled by default; reconfigure with
	// SetRoundProfiling before serving.
	rt.profiler = obs.NewRing[obs.RoundTrace](256)
	rt.stragglerRounds = make([]atomic.Int64, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		st := &shardState{c: &metrics.Counters{}}
		state := base
		if s < cfg.Shards-1 {
			state = base.Clone()
		}
		eng, err := inkstream.NewFromState(model, part.ShardGraph(g, s), state, st.c, inkstream.Options{})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if err := eng.SetPartitionLocal(part.LocalMask(s)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		eng.PublishSnapshot() // epoch 1: the bootstrapped state
		eng.SetRoundTiming(true)
		st.eng = eng
		rt.shards = append(rt.shards, st)
	}
	rt.initSubscriptions()
	rt.deliv = make([][]inkstream.MessageChange, cfg.Shards)
	return rt, nil
}

// Corrupt reports whether a failed round has fail-stopped writes.
func (rt *Router) Corrupt() bool { return rt.failStop.Load() != nil }

// FailStop returns the forensics of the round that fail-stopped writes, or
// nil while the deployment is healthy. The record is immutable once set.
func (rt *Router) FailStop() *obs.FailStopInfo { return rt.failStop.Load() }

// failStopNow trips the latch, recording which round failed and why, then
// (when the black box is armed) triggers an automatic incident capture.
// First failure wins: a second trip keeps the original record.
func (rt *Router) failStopNow(roundID uint64, err error) {
	info := &obs.FailStopInfo{Round: roundID, Err: err.Error(), Time: time.Now()}
	if rt.failStop.CompareAndSwap(nil, info) {
		rt.blackbox.Trigger("fail-stop", info.Err)
	}
}

// Apply splits one fused batch (logical edge changes and/or vertex feature
// updates) into per-shard sub-batches and has every shard validate its own
// against the graph it holds — so an error means no shard was touched —
// then executes it as one BSP round that ends with every shard's snapshot
// published. Shard s holds every in-arc of every vertex it owns and every
// arc of the batch is routed to its destination's owner, so the per-shard
// verdicts together are the verdict on the whole batch; with several faults
// in one batch the first shard's is reported. A round that fails anyway
// fail-stops the deployment. requests sizes the round's profile; the
// returned ID names it in /v1/rounds.
func (rt *Router) Apply(delta graph.Delta, vups []inkstream.VertexUpdate, requests int) (uint64, error) {
	if rt.Corrupt() {
		return 0, ErrCorrupt
	}
	start := time.Now()
	r, err := rt.split(rt.expand(delta), vups)
	if err != nil {
		return 0, err
	}
	for i, s := range rt.shards {
		if err := s.eng.Validate(r.subDelta[i], r.subVups[i]); err != nil {
			return 0, err
		}
	}
	id := rt.roundSeq.Add(1)
	if rt.profiler != nil {
		r.prof = &obs.RoundTrace{ID: id, Start: start, Reqs: requests, Edges: len(delta), VUps: len(vups)}
	}
	if err := rt.executeRound(r); err != nil {
		err = fmt.Errorf("%w: round %d failed: %v", ErrCorrupt, id, err)
		rt.failStopNow(id, err)
		return 0, err
	}
	total := time.Since(start)
	rt.obs.RecordLatency(total)
	if r.prof != nil {
		r.prof.Total = total
		rt.recordRound(r.prof)
	}
	return id, nil
}

// PublishSnapshot is a no-op: publishing every shard's snapshot is the last
// barrier stage of each round (and of New), so nothing applied is ever
// unpublished.
func (rt *Router) PublishSnapshot() {}

// Trace is nil: a round's per-stage per-shard profile (/v1/rounds) is the
// sharded form of a per-layer trace, joined to requests by the round ID.
func (rt *Router) Trace() *obs.Trace { return nil }

// events sums the shards' propagation-event counters.
func (rt *Router) events() int64 {
	var total int64
	for _, s := range rt.shards {
		total += s.c.EventsProcessed.Load()
	}
	return total
}

// expand turns a logical delta into directed arcs: undirected edges become
// both arc directions, each routed (later) to the shard owning its
// destination.
func (rt *Router) expand(delta graph.Delta) graph.Delta {
	if !rt.undirected || len(delta) == 0 {
		return delta
	}
	out := make(graph.Delta, 0, 2*len(delta))
	for _, ch := range delta {
		out = append(out,
			graph.EdgeChange{U: ch.U, V: ch.V, Insert: ch.Insert},
			graph.EdgeChange{U: ch.V, V: ch.U, Insert: ch.Insert})
	}
	return out
}

// ReadRow resolves node's embedding against the owning shard's published
// snapshot, returning the row, the snapshot epoch it was read at, and
// whether the node exists. Lock-free; safe from any goroutine.
func (rt *Router) ReadRow(node int) (tensor.Vector, uint64, bool) {
	if node < 0 || node >= rt.part.NumNodes() {
		return nil, 0, false
	}
	snap := rt.shards[rt.part.Owner(graph.NodeID(node))].eng.Snapshot()
	return snap.Row(node), snap.Epoch, true
}

// Shape reports the served graph, its edges counted from the arcs the shards
// published, and the (min, max) published epoch across shards; their
// difference is the inter-shard epoch skew (transient while a round
// publishes, like the edge count).
func (rt *Router) Shape() server.Shape {
	sh := server.Shape{
		Nodes:      rt.part.NumNodes(),
		Undirected: rt.undirected,
		Shards:     len(rt.shards),
	}
	for i, s := range rt.shards {
		snap := s.eng.Snapshot()
		sh.Edges += snap.Edges
		if i == 0 || snap.Epoch < sh.Epoch {
			sh.Epoch = snap.Epoch
		}
		if snap.Epoch > sh.MaxEpoch {
			sh.MaxEpoch = snap.Epoch
		}
	}
	if rt.undirected {
		sh.Edges /= 2
	}
	return sh
}

// split routes one batch into per-shard sub-batches: each arc to the owner
// of its destination, each vertex update to the owner of its node. A node
// outside the vertex space has no owner and fails the whole batch with
// graph.ErrBadNode; every other check is the owning shard's.
func (rt *Router) split(arcs graph.Delta, vups []inkstream.VertexUpdate) (*round, error) {
	n := len(rt.shards)
	nodes := graph.NodeID(rt.part.NumNodes())
	r := &round{
		subDelta: make([]graph.Delta, n),
		subVups:  make([][]inkstream.VertexUpdate, n),
	}
	// Per-shard sub-deltas preserve batch order (request order, expansion
	// order within a request); per-target event order on each shard then
	// matches the single-engine order.
	for _, ch := range arcs {
		if ch.U < 0 || ch.U >= nodes || ch.V < 0 || ch.V >= nodes {
			return nil, fmt.Errorf("shard: delta change %v: %w: %d nodes", ch, graph.ErrBadNode, nodes)
		}
		s := rt.part.Owner(ch.V)
		r.subDelta[s] = append(r.subDelta[s], ch)
	}
	// Round vertex updates are canonically sorted by node (a batch that
	// updates a node twice fails its owner's validation), so layer-0 record
	// order is node order on every deployment shape.
	vups = append([]inkstream.VertexUpdate(nil), vups...)
	slices.SortFunc(vups, func(a, b inkstream.VertexUpdate) int { return cmp.Compare(a.Node, b.Node) })
	for _, up := range vups {
		if up.Node < 0 || up.Node >= nodes {
			return nil, fmt.Errorf("shard: vertex update of node %d: %w: %d nodes", up.Node, graph.ErrBadNode, nodes)
		}
		s := rt.part.Owner(up.Node)
		r.subVups[s] = append(r.subVups[s], up)
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Round execution.

// runStage is eachShard plus per-shard wall-time capture when the round is
// profiled: each goroutine writes only its own durs slot, and the WaitGroup
// join orders those writes before addStage reads them.
func (rt *Router) runStage(prof *obs.RoundTrace, durs []time.Duration, f func(i int, s *shardState) error) error {
	if prof == nil {
		return rt.eachShard(f)
	}
	return rt.eachShard(func(i int, s *shardState) error {
		t0 := time.Now()
		err := f(i, s)
		durs[i] = time.Since(t0)
		return err
	})
}

// beginRound is the first barrier stage of a round: every shard
// applies its sub-batch and returns its layer-0 message-change records.
func (rt *Router) beginRound(r *round, durs []time.Duration) ([][]inkstream.MessageChange, error) {
	outs := make([][]inkstream.MessageChange, len(rt.shards))
	if err := rt.runStage(r.prof, durs, func(i int, s *shardState) error {
		recs, err := s.eng.BeginRound(r.subDelta[i], r.subVups[i])
		outs[i] = recs
		return err
	}); err != nil {
		return nil, fmt.Errorf("begin: %w", err)
	}
	if r.prof != nil {
		rt.addStage(r.prof, "begin", durs, nil, 0, 0, 0)
	}
	return outs, nil
}

// finishRound is the last barrier stage of a round: every shard
// seals the round and publishes its snapshot. bcast is the record
// bucketing time since the last layer stage.
func (rt *Router) finishRound(prof *obs.RoundTrace, durs []time.Duration, bcast time.Duration) error {
	err := rt.runStage(prof, durs, func(i int, s *shardState) error {
		if err := s.eng.FinishRound(); err != nil {
			return err
		}
		s.eng.PublishSnapshot()
		return nil
	})
	if err == nil && prof != nil {
		rt.addStage(prof, "publish", durs, nil, 0, 0, bcast)
	}
	return err
}

// addStage freezes one barrier stage into the round trace: per-shard compute
// from the stage timings, barrier wait as makespan − compute, and the
// engines' self-measured ghost/event stats (written before each
// goroutine's WaitGroup release, so the post-barrier read is ordered).
// skipped marks shards whose layer call was elided by the idle-shard check:
// they are excluded from makespan and barrier attribution (an idle shard is
// not waiting — it has no work).
func (rt *Router) addStage(prof *obs.RoundTrace, name string, durs []time.Duration, skipped []bool, records int, bytes int64, broadcast time.Duration) {
	st := obs.RoundStageSpan{
		Name:      name,
		Records:   records,
		Bytes:     bytes,
		Broadcast: broadcast,
		Shards:    make([]obs.RoundShardSpan, len(durs)),
	}
	for i, d := range durs {
		if skipped != nil && skipped[i] {
			continue
		}
		if d > st.Makespan {
			st.Makespan = d
		}
	}
	for i, d := range durs {
		if skipped != nil && skipped[i] {
			st.Shards[i] = obs.RoundShardSpan{Skipped: true}
			continue
		}
		es := rt.shards[i].eng.LastStageStats()
		st.Shards[i] = obs.RoundShardSpan{
			Compute:   d,
			Barrier:   st.Makespan - d,
			Ghost:     es.Ghost,
			Events:    es.Events,
			GhostRows: es.GhostRows,
		}
	}
	prof.Stages = append(prof.Stages, st)
}

// eachShard runs f once per shard, in parallel for multi-shard
// deployments, and joins the errors.
func (rt *Router) eachShard(f func(i int, s *shardState) error) error {
	if len(rt.shards) == 1 {
		return f(0, rt.shards[0])
	}
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			errs[i] = f(i, s)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}
