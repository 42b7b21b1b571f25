package inkstream

import (
	"errors"
	"fmt"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// VertexUpdate replaces the input feature vector of one node (Sec. II-F).
type VertexUpdate struct {
	Node graph.NodeID
	X    tensor.Vector
}

// ErrNonFinite refuses a feature vector holding a NaN or an infinity. The
// incremental rules assume every cached m, α and h is finite (NaN ≠ NaN
// hides a deleted max holder, and Inf − Inf turns a sum delta into NaN), so
// such a vector is refused at admission and leaves graph and state as they
// were.
var ErrNonFinite = errors.New("inkstream: non-finite feature value")

func (e *Engine) validateVertexUpdates(ups []VertexUpdate) error {
	if len(ups) == 0 {
		return nil
	}
	// Duplicates are found through the grouper's bitmap, which is clear
	// between layers: no per-request set. Every bit set here is cleared
	// again before returning.
	seen := e.gr.bits
	checked := 0
	defer func() {
		for _, up := range ups[:checked] {
			seen[up.Node>>6] &^= 1 << (uint32(up.Node) & 63)
		}
	}()
	for i, up := range ups {
		if int(up.Node) < 0 || int(up.Node) >= e.g.NumNodes() {
			return fmt.Errorf("inkstream: vertex update %d: %w (%d)", i, graph.ErrBadNode, up.Node)
		}
		if e.partLocal != nil && !e.partLocal[up.Node] {
			return fmt.Errorf("inkstream: vertex update %d targets remote node %d", i, up.Node)
		}
		if len(up.X) != e.model.InDim() {
			return fmt.Errorf("inkstream: vertex update %d: feature dim %d, model wants %d", i, len(up.X), e.model.InDim())
		}
		if !up.X.IsFinite() {
			return fmt.Errorf("inkstream: vertex update %d (node %d): %w", i, up.Node, ErrNonFinite)
		}
		if e.gr.has(up.Node) {
			return fmt.Errorf("inkstream: vertex update %d: node %d updated twice in one batch", i, up.Node)
		}
		seen[up.Node>>6] |= 1 << (uint32(up.Node) & 63)
		checked++
	}
	return nil
}

// applyVertexUpdates writes the new features, refreshes the first-layer
// messages, and produces layer 0's input: the effect of a new feature x_u is
// the replacement of m_{1,u} in the paper's 1-based numbering — here m_0 —
// which reaches u's neighbors as one MessageChange in recOut (reset here), in
// batch order (the router sorts round updates by node, so between shard
// engines this is node order), exactly as in processTarget, and u itself,
// for self-dependent first layers, via the returned hook events.
func (e *Engine) applyVertexUpdates(ups []VertexUpdate) []UserEvent {
	layer0 := e.model.Layers[0]
	// The layer loop consumes the events into the grouper before
	// mergeCarried reuses the buffer for its output.
	e.recOut = e.recOut[:0]
	uevts := e.uevBuf[:0]
	for _, up := range ups {
		e.state.H[0].SetRow(int(up.Node), up.X)
		mRow := e.state.M[0].Row(int(up.Node))
		oldM := e.arena.clone(mRow)
		layer0.ComputeMessage(mRow, up.X)
		gnn.CountMessage(e.c, layer0)
		if oldM.Equal(mRow) {
			continue
		}
		e.recOut = append(e.recOut, MessageChange{Node: up.Node, Old: oldM, New: mRow})
		uevts = e.hooks.Propagate(-1, up.Node, oldM, mRow, uevts)
	}
	e.uevBuf = uevts
	return uevts
}

// AddNode grows the graph and every cached matrix by one isolated vertex
// with feature x, returning its ID. The new node's checkpoints are
// computed layer by layer (its neighborhood is empty, so α is the zero
// vector at every layer). Connect it afterwards with Update and inserted
// edges. Must not be called concurrently with Apply.
func (e *Engine) AddNode(x tensor.Vector) (graph.NodeID, error) {
	if e.partLocal != nil {
		// The partition map is fixed at deployment build time; growing the
		// vertex space would leave the new node unowned.
		return 0, errPartitioned
	}
	if len(x) != e.model.InDim() {
		return 0, fmt.Errorf("inkstream: AddNode feature dim %d, model wants %d", len(x), e.model.InDim())
	}
	if !x.IsFinite() {
		return 0, fmt.Errorf("inkstream: AddNode: %w", ErrNonFinite)
	}
	id := e.g.AddNode()
	e.gr.ensure(e.g.NumNodes())
	e.degDelta = append(e.degDelta, 0)
	e.growDirty(e.g.NumNodes())
	s := e.state
	s.H[0].AppendRow(x)
	h := x
	for l, layer := range e.model.Layers {
		m := make(tensor.Vector, layer.MsgDim())
		layer.ComputeMessage(m, h)
		s.M[l].AppendRow(m)
		alpha := make(tensor.Vector, layer.MsgDim())
		layer.Agg().Identity(alpha)
		layer.Agg().Finalize(alpha, 0)
		s.Alpha[l].AppendRow(alpha)
		next := make(tensor.Vector, layer.OutDim())
		layer.Update(next, alpha, m)
		if n := e.model.Norm(l); n != nil {
			n.ApplyRow(next)
		}
		s.H[l+1].AppendRow(next)
		h = next
	}
	e.markDirty(id)
	return id, nil
}
