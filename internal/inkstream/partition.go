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
// RoundLayer call; Events what a layer stage routed locally, on the
// obs.LayerSpan definition — changed-edge events plus routed arc events (two
// per arc on a monotonic layer) — plus its user events, and for BeginRound
// the records it produced.
type RoundStageStats struct {
	GhostRows int
	Events    int
	Ghost     time.Duration
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

// RoundLayer runs layer l of the open round. recs must be the node-sorted
// records delivered to this shard for the layer: its own and its
// subscriptions' share of the layer-0 records returned by BeginRound (for
// l == 0) or of the records the previous RoundLayer returned (for l > 0). It
// refreshes ghost message rows from the remote records, then runs the layer
// step Apply runs: the changed-edge events in sub-batch order, then the
// records over this shard's arcs in node order — the single-engine arrival
// order restricted to local targets — then the carried user events. The
// returned records are sorted by node, engine-owned and stable until this
// engine's next RoundLayer.
func (e *Engine) RoundLayer(l int, recs []MessageChange) ([]MessageChange, error) {
	if !e.partActive {
		return nil, errors.New("inkstream: RoundLayer without an open round")
	}
	if l < 0 || l >= e.model.NumLayers() {
		return nil, fmt.Errorf("inkstream: RoundLayer layer %d out of range [0,%d)", l, e.model.NumLayers())
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
		e.cols.set(l, r.Node, r.New)
		e.c.StoreVec(len(r.New))
		ghosts++
	}
	if e.roundTiming {
		e.lastStage = RoundStageStats{GhostRows: ghosts, Ghost: time.Since(t0)}
	}

	carried := len(e.partCarU)
	out, user, routed := e.layerStep(l, e.partDelta, e.partOld, recs, e.partCarU)
	e.partCarU = user
	if e.roundTiming {
		e.lastStage.Events = len(e.edgeEv) + routed + carried
	}
	return out, nil
}

// HasCarriedRoundEvents reports whether the open round is carrying user-hook
// events into its next layer. The router's idle-shard check reads it between
// layer barriers: a shard with an empty sub-batch, an empty delivery list AND
// no carried events has provably nothing to do in the next layer, so the
// router skips its layer call entirely.
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
	e.cols.set(l, v, row)
	return nil
}

// FinishRound closes the open round. The caller publishes a snapshot
// afterwards (PublishSnapshot) so readers see the round's effects.
func (e *Engine) FinishRound() error {
	if !e.partActive {
		return errors.New("inkstream: FinishRound without an open round")
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
// aggregator's incremental formula and the monotonic empty-neighbourhood
// test need the previous degree). The storage is retained; only the degree
// entries the previous batch touched are reset, so vertex-only batches pay
// nothing.
func (e *Engine) indexDeltaArcs(delta graph.Delta) {
	e.insArcs = e.insArcs[:0]
	for _, v := range e.degTouched {
		e.degDelta[v] = 0
	}
	e.degTouched = e.degTouched[:0]
	for _, ch := range delta {
		arcs, na := e.arcsOf(ch)
		for _, a := range arcs[:na] {
			if ch.Insert {
				e.insArcs = append(e.insArcs, a)
				e.degDelta[a[1]]++
			} else {
				e.degDelta[a[1]]--
			}
			e.degTouched = append(e.degTouched, a[1])
		}
	}
	slices.SortFunc(e.insArcs, func(a, b [2]graph.NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
}
