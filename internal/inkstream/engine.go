package inkstream

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options tunes the engine. The zero value is the full InkStream algorithm;
// the Disable* switches exist for the paper's ablation studies (Table VI
// and DESIGN.md §4).
type Options struct {
	// DisablePruning turns off inter-layer pruned propagation (component 2
	// in Table VI): resilient nodes keep propagating events, so the whole
	// theoretical affected area is visited, as in InkStream-m(1).
	DisablePruning bool
	// DisableGrouping turns off event grouping (Fig. 4 ablation): each
	// native event is applied individually in arrival order, forcing a
	// conservative recompute whenever a lone deletion resets a channel.
	// Processing falls back to sequential order.
	DisableGrouping bool
	// CopyPayloads disables payload sharing between events fanned out from
	// one source (DESIGN.md §4, item 1): every event carries its own copy.
	CopyPayloads bool
	// Sequential disables intra-layer parallel processing of grouped
	// targets (and, since it idles the worker pool, parallel sharded event
	// routing too).
	Sequential bool
}

// Engine holds the incrementally maintained inference state for one model
// over one dynamic graph. Create it with New (which runs the initial full
// inference) or NewFromState, then feed it ΔG batches via Update and
// vertex-feature changes via UpdateVertices.
type Engine struct {
	model *gnn.Model
	g     *graph.Graph
	state *gnn.State
	hooks UserHooks
	c     *metrics.Counters
	opts  Options
	stats ConditionStats
	// layerStats[l] restricts the condition statistics to layer l —
	// Fig. 8's distribution resolved per layer (deeper layers prune more).
	layerStats []ConditionStats

	// Per-Apply scratch, valid only during one Apply call but retained
	// across calls so the steady-state hot path does not allocate: the
	// maps are cleared (not re-made) per batch, created lazily on the
	// first non-empty delta. insArcs lists the arcs this batch inserts,
	// sorted by (source, target), for the duplicate-event rule: a record
	// looks up its source's run once (stageRecords) and only a source with
	// a run checks its routed arcs against it (routeShards).
	insArcs  [][2]graph.NodeID
	degDelta map[graph.NodeID]int
	// snapMaps[l] holds snapshotRemovedSources' per-layer tables, cleared
	// per batch; nil until the first deletion batch.
	snapMaps []map[graph.NodeID]tensor.Vector
	// negCache caches negated old messages within one enqueueChangedEdges
	// pass; nil until the first accumulative deletion batch.
	negCache map[graph.NodeID]tensor.Vector

	// arena backs every Apply-scoped payload vector; rewound at the start
	// of each Apply.
	arena vecArena

	// processRange fan-in/fan-out buffers, reused across layers and
	// Applies. outR[i] is the message change group slot i emitted (New nil
	// for none) and outU[i] its user events, which keeps its capacity;
	// recOut and uevBuf carry each layer's merged records and user events
	// into the next layer's grouping pass (safe to overwrite in place: the
	// grouper has absorbed the previous layer's input before they are
	// reused). edgeEv stages one layer's changed-edge events and routeR its
	// records (group.go).
	outR   []MessageChange
	outU   [][]UserEvent
	conds  []Condition
	recOut []MessageChange
	uevBuf []UserEvent
	edgeEv []Event
	routeR []routedRec

	// Partitioned-mode state (partition.go). partLocal non-nil switches the
	// engine into shard mode: Apply is disabled in favour of the round
	// protocol (BeginRound, RoundLayer per layer, FinishRound), which hands
	// each layer's records to the router instead of straight to the next
	// layer.
	partLocal  []bool
	partActive bool
	partDelta  graph.Delta
	partOld    []map[graph.NodeID]tensor.Vector
	partCarU   []UserEvent

	// roundTiming gates the per-stage round profiler hooks (partition.go):
	// when on, each round stage leaves a RoundStageStats in lastStage for
	// the router to collect after the stage barrier. Off by default — a
	// couple of time.Now calls per stage is cheap, but the profiler is still
	// opt-in like the flight recorder.
	roundTiming bool
	lastStage   RoundStageStats

	// scratchPools[l] recycles processTarget worker scratch for layer l.
	scratchPools []sync.Pool

	// gr is the reusable epoch-stamped grouping table; shardMin is the
	// per-layer event count from which it routes across the worker pool
	// (shardMinEvents; a field only so in-package tests can pin either
	// route).
	gr       *grouper
	shardMin int

	// snap is the epoch-snapshot machinery (snapshot.go); dirt is the
	// per-group output-changed scratch merged alongside conds.
	snap snapState
	dirt []bool

	// obs records per-update latency and traces; trace is the reusable
	// per-Apply span buffer it emits (nil obs disables both).
	obs   *obs.Observer
	trace obs.Trace
}

// New bootstraps an engine with a full-graph inference over g and x (the
// paper's "initial full graph inference" whose checkpoints are saved).
// The graph is used (and mutated by Update) by reference.
func New(model *gnn.Model, g *graph.Graph, x *tensor.Matrix, c *metrics.Counters, opts Options) (*Engine, error) {
	if err := CheckModel(model); err != nil {
		return nil, err
	}
	state, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		return nil, err
	}
	return NewFromState(model, g, state, c, opts)
}

// NewFromState wraps an existing checkpointed state (which must be
// consistent with g). It installs the built-in self-dependence hooks; use
// SetHooks to extend them.
func NewFromState(model *gnn.Model, g *graph.Graph, state *gnn.State, c *metrics.Counters, opts Options) (*Engine, error) {
	if err := CheckModel(model); err != nil {
		return nil, err
	}
	if state.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("inkstream: state for %d nodes, graph has %d", state.NumNodes(), g.NumNodes())
	}
	e := &Engine{model: model, g: g, state: state, c: c, opts: opts}
	e.hooks = SelfHooks{SelfDependent: func(l int) bool {
		return l < model.NumLayers() && model.Layers[l].SelfDependent()
	}}
	e.gr = newGrouper(g.NumNodes())
	e.shardMin = shardMinEvents
	e.layerStats = make([]ConditionStats, model.NumLayers())
	e.scratchPools = make([]sync.Pool, model.NumLayers())
	e.trace.CondNames = ConditionNames()
	return e, nil
}

// SetObserver installs (or, with nil, removes) the serving-path observer.
// An observer records every Apply into the serving-path latency histogram
// and fills a per-layer obs.Trace (phase timings, event traffic, condition
// counts; see Trace). The trace buffer is engine-owned and reused, so
// steady-state observation does not allocate. The HTTP server uses this to
// share one observer between the engine and its /metrics registry. Not
// safe to call concurrently with Apply.
func (e *Engine) SetObserver(o *obs.Observer) { e.obs = o }

// Observer returns the installed observer (nil when observability is off).
func (e *Engine) Observer() *obs.Observer { return e.obs }

// Trace returns the engine-owned per-layer trace of the most recent Apply.
// With an observer installed the trace is refilled on every Apply, so the
// returned pointer is only valid until the next one — Clone to retain (the
// server's flight recorder does exactly that for sampled requests). Writer
// goroutine only; nil observer means the trace is never filled.
func (e *Engine) Trace() *obs.Trace { return &e.trace }

func checkNorms(model *gnn.Model) error {
	for l := range model.Layers {
		if n := model.Norm(l); n != nil && !n.IsFrozen {
			return fmt.Errorf("inkstream: layer %d has exact-mode GraphNorm; incremental updates require frozen statistics (Sec. II-E) — call Freeze first", l)
		}
	}
	return nil
}

// CheckModel verifies the paper's expressiveness conditions (Sec. II):
// (1) every layer's update reads only the node's own message and
// aggregated neighborhood — guaranteed by the gnn.Layer interface shape,
// except for exact-mode GraphNorm, which couples all vertices and must be
// frozen; and (2) every aggregation function is at least partially
// reversible, so old contributions can be cancelled (std-like functions
// are rejected). New and NewFromState run this check automatically.
func CheckModel(model *gnn.Model) error {
	if err := model.Validate(); err != nil {
		return err
	}
	for l, layer := range model.Layers {
		if !layer.Agg().Reversible() {
			return fmt.Errorf("inkstream: layer %d (%s) uses an irreversible aggregation function %s; incremental updates cannot cancel old contributions (expressiveness condition 2)",
				l, layer.Name(), layer.Agg().Kind())
		}
	}
	return checkNorms(model)
}

// SetHooks replaces the user-event hooks. The replacement must subsume the
// self-dependence behaviour if the model needs it (wrap SelfHooks).
func (e *Engine) SetHooks(h UserHooks) { e.hooks = h }

// State exposes the maintained checkpoints (read-only by convention).
func (e *Engine) State() *gnn.State { return e.state }

// Graph exposes the maintained graph (read-only by convention; mutate it
// only through Update).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Model returns the model under inference.
func (e *Engine) Model() *gnn.Model { return e.model }

// Stats returns the cumulative per-condition visit statistics.
func (e *Engine) Stats() *ConditionStats { return &e.stats }

// LayerStats returns the cumulative condition statistics restricted to
// layer l.
func (e *Engine) LayerStats(l int) *ConditionStats { return &e.layerStats[l] }

// ResetStats clears the condition statistics (total and per layer).
func (e *Engine) ResetStats() {
	e.stats = ConditionStats{}
	for l := range e.layerStats {
		e.layerStats[l] = ConditionStats{}
	}
}

// Output returns the maintained final-layer embeddings.
func (e *Engine) Output() *tensor.Matrix { return e.state.Output() }

// Verify recomputes the full inference from scratch over the current graph
// and input features and compares it against the maintained state — a
// debugging aid for deployments. Monotonic-only models must match
// bit-for-bit; models with any accumulative layer are checked within tol
// (pass 0 to force the bit-exact comparison).
func (e *Engine) Verify(tol float32) error {
	_, err := e.VerifyDiff(tol)
	return err
}

// VerifyDiff is Verify with the measurement exposed: it always returns the
// output-layer max absolute difference between the maintained state and the
// from-scratch recomputation, alongside the pass/fail error. The serving
// layer reports the measured diff in the /v1/verify response body.
func (e *Engine) VerifyDiff(tol float32) (float32, error) {
	want, err := gnn.Infer(e.model, e.g, e.state.H[0], nil)
	if err != nil {
		return 0, err
	}
	maxDiff := e.state.Output().MaxAbsDiff(want.Output())
	exact := true
	for _, layer := range e.model.Layers {
		if !layer.Agg().Monotonic() {
			exact = false
			break
		}
	}
	if exact || tol <= 0 {
		if !e.state.Equal(want) {
			return maxDiff, fmt.Errorf("inkstream: state diverged from recomputation (output max diff %g)", maxDiff)
		}
		return maxDiff, nil
	}
	if !e.state.ApproxEqual(want, tol) {
		return maxDiff, fmt.Errorf("inkstream: state diverged beyond tol %g (output max diff %g)", tol, maxDiff)
	}
	return maxDiff, nil
}

// Refresh re-anchors the cache by recomputing the full inference over the
// current graph and features. Monotonic aggregators never need this (they
// are bit-exact); accumulative aggregators accumulate floating-point drift
// across many incremental batches, and deployments can Refresh on the same
// cadence as the paper's periodic retraining to bound it. Counters are not
// charged (it is maintenance, not serving work).
func (e *Engine) Refresh() error {
	state, err := gnn.Infer(e.model, e.g, e.state.H[0], nil)
	if err != nil {
		return err
	}
	e.state = state
	e.markAllDirty()
	return nil
}

// Update applies one ΔG batch of edge insertions/removals and incrementally
// refreshes the cached state (Algorithm 1). On validation error the graph
// and state are unchanged.
func (e *Engine) Update(delta graph.Delta) error { return e.Apply(delta, nil) }

// UpdateVertices applies vertex-feature updates (Sec. II-F).
func (e *Engine) UpdateVertices(ups []VertexUpdate) error { return e.Apply(nil, ups) }

// Apply processes edge changes and vertex-feature updates as one batch
// between two timestamps.
func (e *Engine) Apply(delta graph.Delta, vups []VertexUpdate) error {
	// Observability: with an observer installed, every phase below is
	// timed into the engine-owned reusable trace (no allocation) and the
	// batch is recorded into the latency histogram at the end. A few
	// time.Now calls per update keep the overhead well under the <5%
	// budget the observability layer is held to (BenchmarkApplyObservability).
	if e.partLocal != nil {
		return errPartitioned
	}
	observing := e.obs != nil
	var t0, phase0 time.Time
	if observing {
		t0 = time.Now()
	}
	oldMsg, err := e.stageBatch(delta, vups)
	if err != nil {
		return err
	}
	L := e.model.NumLayers()
	if observing {
		e.trace.Reset(L)
		e.trace.DeltaEdges = len(delta)
		e.trace.VertexUpdates = len(vups)
		e.trace.DeltaApply = time.Since(t0)
		phase0 = time.Now()
	}

	// Vertex updates produce the initial layer-0 message changes.
	user := e.applyVertexUpdates(vups)
	recs := e.recOut
	if observing {
		e.trace.VertexApply = time.Since(phase0)
	}

	for l := 0; l < L; l++ {
		var span *obs.LayerSpan
		var bytes0 int64
		var conds0 ConditionStats
		if observing {
			span = &e.trace.Layers[l]
			span.UserEventsIn = int64(len(user))
			if e.c != nil {
				bytes0 = e.c.BytesFetched.Load()
			}
			conds0 = e.layerStats[l]
			phase0 = time.Now()
		}
		var routed int
		recs, user, routed = e.layerStep(l, delta, oldMsg, recs, user)
		if observing {
			span.Elapsed = time.Since(phase0)
			span.EventsIn = int64(len(e.edgeEv) + routed)
			if l > 0 {
				e.trace.Layers[l-1].EventsOut = int64(routed)
			}
			if e.c != nil {
				span.BytesFetched = e.c.BytesFetched.Load() - bytes0
			}
			for c := 0; c < int(numConditions); c++ {
				n := e.layerStats[l].Counts[c] - conds0.Counts[c]
				span.Cond[c] = n
				span.Nodes += n
			}
		}
	}
	if observing {
		e.trace.Total = time.Since(t0)
		e.obs.RecordUpdate(&e.trace)
	}
	e.snap.applied++
	return nil
}

// stageBatch is the prologue of every batch, standalone (Apply) or
// partitioned (BeginRound): validate, so an error leaves graph and state
// untouched; rewind the payload arena (every payload of the previous batch
// is dead by now — groups and event buffers only reuse, never re-read);
// snapshot m⁻_{l,u} at every layer for the sources of removed arcs, before
// any mutation — their Del payloads must be the previous-timestamp messages
// even if the source is updated while processing an earlier layer (ghost
// rows included: they still hold last round's values here); index inserted
// arcs and in-degree deltas; then mutate the graph. It returns the
// removed-source snapshot.
func (e *Engine) stageBatch(delta graph.Delta, vups []VertexUpdate) ([]map[graph.NodeID]tensor.Vector, error) {
	if err := delta.Validate(e.g); err != nil {
		return nil, err
	}
	if err := e.validateVertexUpdates(vups); err != nil {
		return nil, err
	}
	e.arena.reset()
	oldMsg := e.snapshotRemovedSources(delta)
	e.indexDeltaArcs(delta)
	if err := delta.Apply(e.g); err != nil {
		return nil, err // unreachable after Validate, but fail safe
	}
	return oldMsg, nil
}

// AppliedBatches returns the number of successfully applied batches —
// the counter a published Snapshot records as AppliedBatches. Writer
// goroutine only.
func (e *Engine) AppliedBatches() uint64 { return e.snap.applied }

// arcsOf expands a logical edge change into its directed arcs without
// allocating: the arcs come back by value in a fixed-size array, with n
// reporting how many are live (2 when the graph is undirected, else 1).
// Callers iterate arcs[:n].
func (e *Engine) arcsOf(ch graph.EdgeChange) (arcs [2][2]graph.NodeID, n int) {
	arcs[0] = [2]graph.NodeID{ch.U, ch.V}
	if e.g.Undirected {
		arcs[1] = [2]graph.NodeID{ch.V, ch.U}
		return arcs, 2
	}
	return arcs, 1
}

// shardCount decides how many grouper shards the upcoming layer's event
// routing uses: 1 (sequential) below the event threshold or when an ablation
// rules out pool work; otherwise twice the effective worker count, because
// ParallelForGrain inlines regions smaller than two chunks per worker,
// capped at maxShards. The count does not balance the shards: each pool
// task gets a fixed run of contiguous shards, so the task owning the
// low-ID blocks, where RMAT's hubs sit, folds most of the arcs (65–69 % at
// 2 workers on bench/'s batch workloads; DESIGN.md §6.3).
func (e *Engine) shardCount(nEvents int) int {
	if e.opts.Sequential || e.opts.DisableGrouping || nEvents < e.shardMin {
		return 1
	}
	w := tensor.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 {
		// One worker: shards buy no parallelism.
		return 1
	}
	return min(2*w, maxShards)
}

const (
	// shardMinEvents gates the sharded router: below this many events per
	// layer, sequential routing wins (the pool handoff and every task's own
	// scan of the input cost more than they save). Same spirit as
	// tensor.MinChunkWork, measured in events rather than grain units.
	shardMinEvents = 512
	// maxShards bounds the shard count.
	maxShards = 32
)

// snapshotRemovedSources clones the pre-batch message rows of every removed
// arc's source node at every layer. Insert-only (and empty) deltas return
// nil without touching the tables; the per-layer maps and the clones are
// reused storage, valid only until the next Apply.
func (e *Engine) snapshotRemovedSources(delta graph.Delta) []map[graph.NodeID]tensor.Vector {
	hasDel := false
	for _, ch := range delta {
		if !ch.Insert {
			hasDel = true
			break
		}
	}
	if !hasDel {
		return nil
	}
	L := e.model.NumLayers()
	if e.snapMaps == nil {
		e.snapMaps = make([]map[graph.NodeID]tensor.Vector, L)
		for l := range e.snapMaps {
			e.snapMaps[l] = make(map[graph.NodeID]tensor.Vector)
		}
	} else {
		for l := range e.snapMaps {
			clear(e.snapMaps[l])
		}
	}
	out := e.snapMaps
	for _, ch := range delta {
		if ch.Insert {
			continue
		}
		arcs, na := e.arcsOf(ch)
		for _, a := range arcs[:na] {
			src := a[0]
			for l := 0; l < L; l++ {
				if _, ok := out[l][src]; !ok {
					out[l][src] = e.arena.clone(e.state.M[l].Row(int(src)))
				}
			}
		}
	}
	return out
}

// appendChangedEdgeEvents creates the layer-l events for ΔG (Sec. II-B2,
// "Propagate for changed edges"): for a removed arc (u,v) an event
// cancelling the old message m⁻_{l,u} at v; for an inserted arc (s,t) an
// event adding the current message m_{l,s} — which the previous layer's
// processing has already refreshed if s was affected. Events are appended
// to evts (rather than routed into the grouper directly) so every routing
// task can scan the list for the targets it owns.
func (e *Engine) appendChangedEdgeEvents(evts []Event, l int, delta graph.Delta, oldMsg []map[graph.NodeID]tensor.Vector) []Event {
	agg := e.model.Layers[l].Agg()
	dim := e.model.Layers[l].MsgDim()
	if len(e.negCache) > 0 {
		clear(e.negCache)
	}
	for _, ch := range delta {
		arcs, na := e.arcsOf(ch)
		for _, a := range arcs[:na] {
			src, dst := a[0], a[1]
			var ev Event
			switch {
			case agg.Monotonic() && ch.Insert:
				ev = Event{Op: OpAdd, Target: dst, Payload: e.payload(e.state.M[l].Row(int(src)))}
			case agg.Monotonic():
				ev = Event{Op: OpDel, Target: dst, Payload: e.payload(oldMsg[l][src])}
			case ch.Insert:
				ev = Event{Op: OpUpdate, Target: dst, Payload: e.payload(e.state.M[l].Row(int(src)))}
			default:
				neg, ok := e.negCache[src]
				if !ok {
					if e.negCache == nil {
						e.negCache = make(map[graph.NodeID]tensor.Vector)
					}
					neg = e.arena.alloc(dim)
					tensor.Scale(neg, -1, oldMsg[l][src])
					e.negCache[src] = neg
				}
				ev = Event{Op: OpUpdate, Target: dst, Payload: neg}
			}
			e.c.FetchVec(dim)
			evts = append(evts, ev)
		}
	}
	return evts
}

// payload returns p, or a private copy when payload sharing is ablated.
func (e *Engine) payload(p tensor.Vector) tensor.Vector {
	if e.opts.CopyPayloads {
		return p.Clone()
	}
	return p
}

// layerStep runs layer l of a batch — the one layer body of Apply and of the
// round protocol's RoundLayer. Changed-edge events are re-enqueued at every
// layer and arrive first; recs, the previous layer's message changes in node
// order, follow; then the user events carried into the layer. It returns the
// layer's records (recOut) and carried user events (uevBuf), both sorted by
// node, and the number of arc events the records routed.
func (e *Engine) layerStep(l int, delta graph.Delta, oldMsg []map[graph.NodeID]tensor.Vector, recs []MessageChange, user []UserEvent) ([]MessageChange, []UserEvent, int) {
	e.edgeEv = e.appendChangedEdgeEvents(e.edgeEv[:0], l, delta, oldMsg)
	groups, routed := e.groupLayer(l, e.edgeEv, recs, user)
	e.recOut = e.recOut[:0]
	e.processRange(l, groups)
	return e.recOut, e.mergeCarried(groups), routed
}

// processRange consumes layer l's grouped events: it updates each target's α
// (incrementally where eligible), recomputes the layer output for affected
// targets, and emits the next layer's message-change records and user
// events. Targets are independent after grouping, so they are processed in
// parallel; conditions, dirty rows and records are merged in group order for
// determinism, so the records come out sorted by source node. User events
// stay in the per-slot outU buffers until mergeCarried collects them.
func (e *Engine) processRange(l int, groups []*group) {
	n := len(groups)
	// Grow the per-group fan-out tables to n slots, keeping each outU slot's
	// accumulated capacity across layers and batches.
	for len(e.outU) < n {
		e.outU = append(e.outU, nil)
		e.outR = append(e.outR, MessageChange{})
	}
	if cap(e.conds) < n {
		e.conds = make([]Condition, n)
		e.dirt = make([]bool, n)
	}
	conds, dirt := e.conds[:n], e.dirt[:n]
	outU, outR := e.outU, e.outR
	body := func(a, b int) {
		// Per-chunk scratch, recycled across chunks, layers and batches. The
		// chunk's targets count into its tally, which reaches the shared
		// counters in one flush: an atomic add per charge would have every
		// worker contend for one cache line about fifteen times per target.
		sc := e.getScratch(l)
		for i := a; i < b; i++ {
			outU[i], outR[i], conds[i], dirt[i] = e.processTarget(l, groups[i], sc, outU[i][:0])
		}
		sc.t.Flush(e.c)
		e.scratchPools[l].Put(sc)
	}
	if e.opts.Sequential || e.opts.DisableGrouping {
		body(0, n)
	} else {
		tensor.ParallelForGrain(n, 4*e.model.Layers[l].MsgDim(), body)
	}
	for i, g := range groups {
		if outR[i].New != nil {
			e.recOut = append(e.recOut, outR[i])
		}
		e.stats.Add(conds[i])
		e.layerStats[l].Add(conds[i])
		if dirt[i] {
			e.markDirty(g.target)
		}
	}
}

// mergeCarried collects the user events a processed layer emitted into the
// carried buffer, in group order. The buffer may still hold the events
// carried INTO this layer, but the grouper consumed those before the layer
// was processed, so overwriting them in place is safe.
func (e *Engine) mergeCarried(groups []*group) []UserEvent {
	next := e.uevBuf[:0]
	for i := range groups {
		next = append(next, e.outU[i]...)
	}
	e.uevBuf = next
	return next
}

// getScratch fetches (or lazily builds) worker scratch for layer l.
func (e *Engine) getScratch(l int) *scratch {
	if v := e.scratchPools[l].Get(); v != nil {
		return v.(*scratch)
	}
	return newScratch(e.model.Layers[l])
}

// scratch is the per-worker-chunk temporary storage of processTarget: the
// staged layer output, the staged α and the exposed channel list, whose
// contents never survive one target; and the chunk's work tally, which is
// flushed into the engine's counters when the chunk ends.
type scratch struct {
	newH, staged tensor.Vector
	exposed      []int32
	t            metrics.Tally
}

func newScratch(layer gnn.Layer) *scratch {
	return &scratch{
		newH:    make(tensor.Vector, layer.OutDim()),
		staged:  make(tensor.Vector, layer.MsgDim()),
		exposed: make([]int32, 0, layer.MsgDim()),
	}
}

// processTarget handles all events heading to one node in one layer:
// Algorithm 1 lines 4–21 plus the user-hook application and the next-layer
// propagation of Sec. II-B2, which is one MessageChange (New nil when the
// node does not propagate) for the next layer's grouping pass — or, between
// shard engines, the router — to deliver over the node's out-arcs. User
// events are appended to uevts, a reusable buffer owned by the caller's group
// slot. The final bool reports whether the write landed in the final layer
// with a changed value — i.e. whether the served embedding row is now dirty.
func (e *Engine) processTarget(l int, g *group, sc *scratch, uevts []UserEvent) ([]UserEvent, MessageChange, Condition, bool) {
	layer := e.model.Layers[l]
	agg := layer.Agg()
	u := g.target
	sc.t.VisitNode()
	sc.t.AddEvents(g.n + len(g.user))

	alphaChanged := false
	cond := CondSelfOnly
	if g.hasNative() {
		if agg.Monotonic() {
			if e.opts.DisableGrouping {
				alphaChanged, cond = e.applyMonotonicUngrouped(l, g, sc)
			} else {
				alphaChanged, cond = e.applyMonotonic(l, g, sc)
			}
		} else {
			e.applyAccumulative(l, g, &sc.t)
			alphaChanged = true
			cond = CondAccumulative
		}
	}
	force := false
	if len(g.user) > 0 {
		force = e.hooks.Apply(l, u, g.user)
	}

	affected := alphaChanged || force
	if e.opts.DisablePruning && g.hasNative() {
		affected = true
	}
	if !affected {
		// A visit that scanned the neighborhood keeps its class even when α
		// came back equal: Fig. 8 counts what the visit cost.
		if g.hasNative() && cond != CondExposedReset {
			cond = CondPruned
		}
		return uevts, MessageChange{}, cond, false
	}

	// Recompute the layer output h_{l+1,u} = act(𝒯(α, m)) from the
	// (possibly updated) α and the node's own current message.
	hRow := e.state.H[l+1].Row(int(u))
	newH := sc.newH
	layer.Update(newH, e.state.Alpha[l].Row(int(u)), e.state.M[l].Row(int(u)))
	if n := e.model.Norm(l); n != nil {
		n.ApplyRow(newH)
	}
	gnn.CountUpdate(&sc.t, layer)
	hChanged := !newH.Equal(hRow)
	copy(hRow, newH)
	sc.t.StoreVec(len(hRow))
	outChanged := hChanged && l+1 == e.model.NumLayers()

	if !hChanged && !e.opts.DisablePruning {
		// The embedding survived the α change (e.g. clamped by ReLU):
		// the node is resilient at the output level; prune.
		return uevts, MessageChange{}, cond, false
	}
	if l+1 >= e.model.NumLayers() {
		return uevts, MessageChange{}, cond, outChanged
	}

	// Refresh the node's next-layer message. oldM escapes into the record —
	// one payload per source, the paper's memory model — and lives on the
	// Apply-scoped arena; New aliases the live row.
	next := e.model.Layers[l+1]
	mRow := e.state.M[l+1].Row(int(u))
	oldM := e.arena.clone(mRow)
	next.ComputeMessage(mRow, hRow)
	gnn.CountMessage(&sc.t, next)
	if oldM.Equal(mRow) && !e.opts.DisablePruning {
		return uevts, MessageChange{}, cond, false
	}
	uevts = e.hooks.Propagate(l, u, oldM, mRow, uevts)
	return uevts, MessageChange{Node: u, Old: oldM, New: mRow}, cond, false
}
