package baseline

import (
	"fmt"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Shadow recompute: the sampled, non-exclusive sibling of Engine.Verify
// (DESIGN.md §9.4). Verify recomputes the whole graph and must quiesce the
// writer; a Shadow instead captures, in one cheap pass on the writer's
// goroutine, everything needed to recompute the final embeddings of a
// handful of sampled nodes — their L-hop in-dependency cone: frozen
// in-neighbor lists, input-feature rows and the maintained output rows —
// and then recomputes *off* the writer, so the serving pipeline only stalls
// for the capture, never for the inference. The drift auditor runs this
// continuously to turn the paper's accumulated-error concern (floating-
// point drift of accumulative aggregators across many incremental batches)
// into a live metric.
type Shadow struct {
	model *gnn.Model
	// sets[l] is the node set whose h_l (and m_l) the recompute needs;
	// sets[L] is the sampled target set. Built exactly like the k-hop
	// baseline's ExpandIn closure, but seeded with the targets only.
	sets [][]graph.NodeID
	// in holds the frozen in-neighbor lists of every node in sets[1..L].
	in map[graph.NodeID][]graph.NodeID
	// x holds cloned input-feature rows for sets[0]; want the cloned
	// maintained output rows for the targets.
	x, want map[graph.NodeID]tensor.Vector
	// Epoch is the snapshot epoch the capture corresponds to (recorded by
	// the caller for reporting; CaptureShadow does not read it).
	Epoch uint64
}

// Targets returns the sampled node set the shadow recomputes.
func (s *Shadow) Targets() []graph.NodeID { return s.sets[len(s.sets)-1] }

// CaptureBytes estimates the captured payload size — the cost the capture
// imposed on the writer stall, reported by the auditor.
func (s *Shadow) CaptureBytes() int64 {
	var b int64
	for _, nbrs := range s.in {
		b += int64(4 * len(nbrs))
	}
	for _, v := range s.x {
		b += int64(4 * len(v))
	}
	for _, v := range s.want {
		b += int64(4 * len(v))
	}
	return b
}

// CaptureShadow snapshots the L-hop in-dependency cone of targets: the
// per-layer closure sets, frozen adjacency, input features (x rows) and the
// maintained output rows (out rows) to compare against. Must run on the
// engine's writer goroutine (or otherwise quiesced); the returned Shadow is
// self-contained and safe to Recompute from any goroutine afterwards.
func CaptureShadow(model *gnn.Model, g *graph.Graph, x, out *tensor.Matrix, targets []graph.NodeID) (*Shadow, error) {
	L := model.NumLayers()
	for l := range model.Layers {
		if n := model.Norm(l); n != nil && !n.IsFrozen {
			return nil, fmt.Errorf("baseline: shadow recompute requires frozen GraphNorm")
		}
	}
	s := &Shadow{
		model: model,
		sets:  make([][]graph.NodeID, L+1),
		in:    make(map[graph.NodeID][]graph.NodeID),
		x:     make(map[graph.NodeID]tensor.Vector),
		want:  make(map[graph.NodeID]tensor.Vector),
	}
	// Deduplicate and bounds-check the targets.
	seen := make(map[graph.NodeID]struct{}, len(targets))
	tset := make([]graph.NodeID, 0, len(targets))
	for _, t := range targets {
		if int(t) < 0 || int(t) >= g.NumNodes() {
			return nil, fmt.Errorf("baseline: shadow target %d out of range", t)
		}
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		tset = append(tset, t)
	}
	if len(tset) == 0 {
		return nil, fmt.Errorf("baseline: no shadow targets")
	}
	s.sets[L] = tset
	// Walk the closure inward: layer l-1 needs h for sets[l] and all their
	// in-neighbors. Freeze each newly seen node's in-neighbor list once.
	for l := L; l >= 1; l-- {
		mark := make(map[graph.NodeID]struct{}, 2*len(s.sets[l]))
		var next []graph.NodeID
		add := func(u graph.NodeID) {
			if _, ok := mark[u]; !ok {
				mark[u] = struct{}{}
				next = append(next, u)
			}
		}
		for _, u := range s.sets[l] {
			add(u)
			if _, ok := s.in[u]; !ok {
				s.in[u] = append([]graph.NodeID(nil), g.InNeighbors(u)...)
			}
			for _, v := range s.in[u] {
				add(v)
			}
		}
		s.sets[l-1] = next
	}
	for _, u := range s.sets[0] {
		s.x[u] = x.Row(int(u)).Clone()
	}
	for _, t := range tset {
		s.want[t] = out.Row(int(t)).Clone()
	}
	return s, nil
}

// ShadowResult reports one shadow recompute.
type ShadowResult struct {
	// MaxAbsDiff is the largest absolute output difference across all
	// sampled targets; WorstNode the target it occurred at.
	MaxAbsDiff float32
	WorstNode  graph.NodeID
	// Nodes is the number of sampled targets; ClosureNodes the total cone
	// size recomputed to produce them.
	Nodes, ClosureNodes int
}

// Recompute runs the captured cone through the model from the input
// features and compares the recomputed target embeddings against the
// captured maintained rows. Pure function of the capture: safe off the
// writer goroutine, allocates freely (it is audit-path, not serving-path).
func (s *Shadow) Recompute() ShadowResult {
	L := s.model.NumLayers()
	h := s.x
	closure := len(s.sets[0])
	for l := 0; l < L; l++ {
		layer := s.model.Layers[l]
		agg := layer.Agg()
		// Messages for every node of this layer's closure.
		m := make(map[graph.NodeID]tensor.Vector, len(s.sets[l]))
		for _, u := range s.sets[l] {
			mu := make(tensor.Vector, layer.MsgDim())
			layer.ComputeMessage(mu, h[u])
			m[u] = mu
		}
		// Aggregate + update for the next tighter set.
		hNext := make(map[graph.NodeID]tensor.Vector, len(s.sets[l+1]))
		norm := s.model.Norm(l)
		for _, u := range s.sets[l+1] {
			alpha := make(tensor.Vector, layer.MsgDim())
			agg.Identity(alpha)
			nbrs := s.in[u]
			for _, v := range nbrs {
				agg.Merge(alpha, m[v])
			}
			agg.Finalize(alpha, len(nbrs))
			hu := make(tensor.Vector, layer.OutDim())
			layer.Update(hu, alpha, m[u])
			if norm != nil {
				norm.ApplyRow(hu)
			}
			hNext[u] = hu
		}
		h = hNext
	}
	res := ShadowResult{Nodes: len(s.sets[L]), ClosureNodes: closure}
	for _, t := range s.sets[L] {
		got, want := h[t], s.want[t]
		for i := range want {
			d := got[i] - want[i]
			if d < 0 {
				d = -d
			}
			if d > res.MaxAbsDiff {
				res.MaxAbsDiff = d
				res.WorstNode = t
			}
		}
	}
	return res
}
