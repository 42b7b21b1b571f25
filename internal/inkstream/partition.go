package inkstream

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// This file is the partition-aware face of the engine: the shard-side half
// of partitioned multi-engine serving (internal/shard, DESIGN.md §7.4).
//
// In partitioned mode one engine owns a subset of the vertices. It holds
// full-size state matrices, but only the rows of local vertices are
// authoritative; message rows of remote vertices are ghost rows, refreshed
// from delivered message-change records at the start of every layer.
// Propagation is the same as standalone — processTarget emits one
// MessageChange per affected source and the next layer's grouping pass walks
// that source's out-arcs (groupLayer) — except that the records travel
// through the router, which delivers each, in node order, to the shards
// holding an arc from its source. Because a shard graph holds every in-arc
// of every local vertex, the per-target arrival sequence is exactly the
// single-engine sequence restricted to local targets — which is what makes
// N-shard results bit-exact against a standalone engine (see DESIGN.md
// §7.5).

var errPartitioned = errors.New("inkstream: engine is in partitioned mode; use the round protocol (BeginRound … FinishRound) via the shard router")

// RoundStageStats is one shard's self-measured slice of one round stage,
// read by the router after the stage barrier (the WaitGroup join orders the
// write before the read). Ghost is the ghost-row refresh portion of a
// RoundLayerBoundary call; Events what a layer stage routed locally, on the
// obs.LayerSpan definition — changed-edge events plus routed arc events (two
// per arc on a monotonic layer) — plus its user events, and for BeginRound
// the records it produced.
type RoundStageStats struct {
	GhostRows int
	Events    int
	Ghost     time.Duration
	// Boundary/Interior split one RoundLayerBoundary+RoundLayerInterior
	// pair's compute time into the part that produced outgoing records and
	// the part overlapped with the exchange. BoundaryTargets counts the
	// groups processed in the boundary phase.
	Boundary        time.Duration
	Interior        time.Duration
	BoundaryTargets int
}

// SetRoundTiming toggles the per-stage profiler hooks. Not safe to call
// concurrently with rounds.
func (e *Engine) SetRoundTiming(on bool) { e.roundTiming = on }

// LastStageStats returns the stats of the most recent round stage (zero when
// timing is off).
func (e *Engine) LastStageStats() RoundStageStats { return e.lastStage }

// MessageChange records that node Node's layer-(l+1) message changed from
// Old to New while processing layer l (or its layer-0 message, for a
// vertex-feature update). It is how a change propagates in every mode: the
// grouping pass of the next layer folds Old and New into the groups of Node's
// out-neighbors, sharing the two payloads among all of them. Old points into
// the emitting engine's arena and New into its live message matrix: both are
// stable until that engine's next batch, so a receiving shard engine must
// consume records within the same round (the router's layer barrier
// guarantees this).
type MessageChange struct {
	Node graph.NodeID
	Old  tensor.Vector
	New  tensor.Vector
}

// SetPartitionLocal switches the engine into partitioned mode: local[v]
// reports whether this engine owns vertex v. The engine's graph must
// already be the shard graph (every in-arc of every local vertex, nothing
// else — graph.Partition.ShardGraph builds it). Passing nil returns the
// engine to standalone mode. Not safe to call concurrently with rounds.
func (e *Engine) SetPartitionLocal(local []bool) error {
	if local != nil && len(local) != e.g.NumNodes() {
		return fmt.Errorf("inkstream: partition mask for %d nodes, graph has %d", len(local), e.g.NumNodes())
	}
	if e.partActive {
		return errors.New("inkstream: cannot change partition mask mid-round")
	}
	e.partLocal = local
	return nil
}

// BeginRound opens one update round: it validates and applies this shard's
// sub-batch (directed edge changes whose destinations are local, plus
// feature updates of local vertices) and returns the layer-0 message-change
// records produced by the feature updates, in sub-batch order. On
// validation error nothing is mutated and the round stays closed.
//
// The returned slice is engine-owned scratch, valid until the next call
// into this engine; callers that aggregate records across shards must copy
// the elements out (the structs, not the payloads — payloads stay valid for
// the round).
func (e *Engine) BeginRound(delta graph.Delta, vups []VertexUpdate) ([]MessageChange, error) {
	if e.partLocal == nil {
		return nil, errors.New("inkstream: BeginRound requires partitioned mode (SetPartitionLocal)")
	}
	if e.partActive {
		return nil, errors.New("inkstream: BeginRound with a round already open")
	}
	oldMsg, err := e.stageBatch(delta, vups)
	if err != nil {
		return nil, err
	}
	e.partOld, e.partDelta, e.partActive = oldMsg, delta, true
	e.partCarU = e.applyVertexUpdates(vups)
	if e.roundTiming {
		e.lastStage = RoundStageStats{Events: len(e.recOut)}
	}
	return e.recOut, nil
}

// SetPartitionBoundary installs the boundary mask for split-layer rounds:
// boundary[v] marks a local vertex with at least one remote subscriber, i.e.
// a vertex whose message-change records other shards consume. The router
// derives the mask from its subscription tables and refreshes it between
// rounds when arc changes move the cut. Passing nil disables the split
// (RoundLayerBoundary then processes every target in the boundary phase).
// Not safe to call concurrently with rounds.
func (e *Engine) SetPartitionBoundary(boundary []bool) error {
	if boundary != nil && len(boundary) != e.g.NumNodes() {
		return fmt.Errorf("inkstream: boundary mask for %d nodes, graph has %d", len(boundary), e.g.NumNodes())
	}
	if e.partActive {
		return errors.New("inkstream: cannot change boundary mask mid-round")
	}
	e.partBoundary = boundary
	return nil
}

// RoundLayerBoundary runs the boundary phase of layer l of the open round.
// recs must be the node-sorted records delivered to this shard for the
// layer: its own and its subscriptions' share of the layer-0 records
// returned by BeginRound (for l == 0) or of the records the previous layer's
// two phases returned (for l > 0). It refreshes ghost message rows from the
// remote records, groups the layer's input (changed-edge events in sub-batch
// order, then the records over this shard's arcs in node order — the
// single-engine arrival order restricted to local targets), and computes only
// the targets whose records other shards are waiting for. Those records are
// returned immediately — sorted by node, engine-owned, stable until this
// engine's next RoundLayerBoundary — so the router can start the cross-shard
// exchange while RoundLayerInterior finishes the rest of the layer.
// Splitting a layer never changes values: grouped targets are independent
// within a layer (layer-l processing reads M[l]/Alpha[l] and writes only
// per-target H[l+1]/M[l+1] rows), so only the schedule moves. With no
// boundary mask, and under the DisableGrouping ablation, the whole layer
// runs in the boundary phase.
func (e *Engine) RoundLayerBoundary(l int, recs []MessageChange) ([]MessageChange, error) {
	if !e.partActive {
		return nil, errors.New("inkstream: RoundLayerBoundary without an open round")
	}
	if e.partSplitOpen {
		return nil, errors.New("inkstream: previous layer's interior phase still pending (RoundLayerInterior)")
	}
	if l < 0 || l >= e.model.NumLayers() {
		return nil, fmt.Errorf("inkstream: RoundLayerBoundary layer %d out of range [0,%d)", l, e.model.NumLayers())
	}

	// Ghost refresh: adopt the remote shards' message changes before any
	// event references M[l]. Local records are this engine's own rows —
	// already current.
	var t0 time.Time
	if e.roundTiming {
		t0 = time.Now()
	}
	ghosts := 0
	for _, r := range recs {
		if e.partLocal[r.Node] {
			continue
		}
		e.state.M[l].SetRow(int(r.Node), r.New)
		e.c.StoreVec(len(r.New))
		ghosts++
	}
	if e.roundTiming {
		e.lastStage = RoundStageStats{GhostRows: ghosts, Ghost: time.Since(t0)}
	}

	// Group the layer's input exactly as Apply does: changed-edge events
	// first, then this layer's message changes.
	e.edgeEv = e.appendChangedEdgeEvents(e.edgeEv[:0], l, e.partDelta, e.partOld)
	groups, routed := e.groupLayer(l, e.edgeEv, recs, e.partCarU)

	split := len(groups)
	if e.partBoundary != nil && !e.opts.DisableGrouping {
		// Stable-partition boundary targets first. Both halves stay sorted
		// by target, so mergeCarried can reconstruct the global target order.
		e.partGroups = e.partGroups[:0]
		for _, g := range groups {
			if e.partBoundary[g.target] {
				e.partGroups = append(e.partGroups, g)
			}
		}
		split = len(e.partGroups)
		for _, g := range groups {
			if !e.partBoundary[g.target] {
				e.partGroups = append(e.partGroups, g)
			}
		}
		groups = e.partGroups
	}

	if e.roundTiming {
		e.lastStage.Events = len(e.edgeEv) + routed + len(e.partCarU)
		t0 = time.Now()
	}
	e.recOut = e.recOut[:0]
	e.processRange(l, groups, 0, split)
	if e.roundTiming {
		e.lastStage.Boundary = time.Since(t0)
		e.lastStage.BoundaryTargets = split
	}
	e.partGroups, e.partSplit, e.partLayer = groups, split, l
	e.partSplitOpen = true
	return e.recOut, nil
}

// RoundLayerInterior finishes the layer RoundLayerBoundary opened: it
// computes the interior targets (whose records no other shard consumes
// before the next layer barrier) and returns their records, sorted by node.
// The interior phase appends to a separate buffer — the boundary slice may
// still be in the router's hands — so the two returned slices never share
// backing storage within a layer.
func (e *Engine) RoundLayerInterior() ([]MessageChange, error) {
	if !e.partActive || !e.partSplitOpen {
		return nil, errors.New("inkstream: RoundLayerInterior without an open boundary phase")
	}
	groups, split, l := e.partGroups, e.partSplit, e.partLayer

	var t0 time.Time
	if e.roundTiming {
		t0 = time.Now()
	}
	boundaryRecs := e.recOut
	e.recOut = e.partRecB[:0]
	e.processRange(l, groups, split, len(groups))
	e.partRecB = e.recOut
	interiorRecs := e.recOut
	e.recOut = boundaryRecs
	if e.roundTiming {
		e.lastStage.Interior = time.Since(t0)
	}

	// The next layer sees the carried user-hook events in exactly the order
	// an unsplit layer produces.
	e.partCarU = e.mergeCarried(groups, split)
	e.partSplitOpen = false
	return interiorRecs, nil
}

// HasCarriedRoundEvents reports whether the open round is carrying user-hook
// events into its next layer. The router's idle-shard check reads it between
// layer barriers: a shard with an empty sub-batch, an empty delivery list AND
// no carried events has provably nothing to do in the next layer, so the
// router skips its two layer calls entirely.
func (e *Engine) HasCarriedRoundEvents() bool { return len(e.partCarU) > 0 }

// MessageRow returns the engine's live layer-l message row of vertex v. The
// slice aliases engine state: callers copy it out before the engine runs
// again. The router uses it to hydrate a ghost row on the shard that just
// subscribed to v (a cut arc appeared where none existed).
func (e *Engine) MessageRow(l int, v graph.NodeID) (tensor.Vector, error) {
	if l < 0 || l >= e.model.NumLayers() {
		return nil, fmt.Errorf("inkstream: MessageRow layer %d out of range [0,%d)", l, e.model.NumLayers())
	}
	if int(v) >= e.g.NumNodes() {
		return nil, fmt.Errorf("inkstream: MessageRow node %d out of range", v)
	}
	return e.state.M[l].Row(int(v)), nil
}

// SetGhostMessageRow overwrites the ghost layer-l message row of remote
// vertex v — subscription hydration: a shard that starts consuming v's
// records mid-stream must first adopt v's current message, exactly as the
// bootstrap seeded every ghost row. Only legal between rounds and only for
// remote vertices (local rows are authoritative).
func (e *Engine) SetGhostMessageRow(l int, v graph.NodeID, row tensor.Vector) error {
	if e.partLocal == nil {
		return errors.New("inkstream: SetGhostMessageRow requires partitioned mode")
	}
	if e.partActive {
		return errors.New("inkstream: SetGhostMessageRow mid-round")
	}
	if l < 0 || l >= e.model.NumLayers() {
		return fmt.Errorf("inkstream: SetGhostMessageRow layer %d out of range [0,%d)", l, e.model.NumLayers())
	}
	if int(v) >= len(e.partLocal) {
		return fmt.Errorf("inkstream: SetGhostMessageRow node %d out of range", v)
	}
	if e.partLocal[v] {
		return fmt.Errorf("inkstream: SetGhostMessageRow on local node %d (row is authoritative)", v)
	}
	e.state.M[l].SetRow(int(v), row)
	return nil
}

// FinishRound closes the open round. The caller publishes a snapshot
// afterwards (PublishSnapshot) so readers see the round's effects.
func (e *Engine) FinishRound() error {
	if !e.partActive {
		return errors.New("inkstream: FinishRound without an open round")
	}
	if e.partSplitOpen {
		return errors.New("inkstream: FinishRound with a boundary phase still open (RoundLayerInterior)")
	}
	e.partActive = false
	e.partDelta = nil
	e.partOld = nil
	e.partCarU = nil
	e.snap.applied++
	if e.roundTiming {
		e.lastStage = RoundStageStats{}
	}
	return nil
}

// indexDeltaArcs records which arcs this batch inserts, sorted by source then
// target (propagation from an affected source skips them — the changed-edge
// event carries the new message already — and only a record whose source has
// a run here pays a per-arc check), and per-node in-degree deltas (the mean
// aggregator's incremental formula needs the previous degree). The storage is
// retained and reset per batch; vertex-only batches never pay for it.
func (e *Engine) indexDeltaArcs(delta graph.Delta) {
	e.insArcs = e.insArcs[:0]
	if len(e.degDelta) > 0 {
		clear(e.degDelta)
	}
	if len(delta) == 0 {
		return
	}
	if e.degDelta == nil {
		e.degDelta = make(map[graph.NodeID]int)
	}
	for _, ch := range delta {
		arcs, na := e.arcsOf(ch)
		for _, a := range arcs[:na] {
			if ch.Insert {
				e.insArcs = append(e.insArcs, a)
				e.degDelta[a[1]]++
			} else {
				e.degDelta[a[1]]--
			}
		}
	}
	slices.SortFunc(e.insArcs, func(a, b [2]graph.NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
}
