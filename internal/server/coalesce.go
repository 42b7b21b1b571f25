package server

import (
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
)

// Server-side adaptive coalescing (DESIGN.md §7.3). The writer takes every
// request queued behind its own into a group; applying each on its own would
// pay the backend's fixed per-batch costs (validation, arena rewind,
// per-layer grouper epochs, BSP barriers, snapshot publication) once per
// request. Coalescing merges compatible requests of a group into one fused
// Apply, preserving the per-request contract:
//
//   - Ack/error routing: a request is acknowledged with exactly the error
//     it would have received applied alone. Compatible requests cannot
//     change each other's validation outcome (see conflicts), and when a
//     fused apply still fails, the batch is replayed request-by-request so
//     the error lands on exactly the conflicting request.
//   - Read-your-writes: the snapshot covering a fused batch is published
//     before any of its requests are acknowledged.
//   - Ordering: requests are fused and flushed in arrival order; a request
//     that conflicts with the open batch flushes it (a "stall") and starts
//     the next one, so same-edge/same-node sequences apply in sequence.
//
// For monotonic aggregators the fused result is bit-exact with one-at-a-time
// application (the maintained state is a pure function of graph + features,
// which conflict-free fusion leaves identical). Accumulative aggregators
// reassociate floating-point sums across batch boundaries — the same
// tolerance the paper's batch-size sweep accepts.

// edgeKey identifies one logical edge for conflict detection, canonical
// (endpoints sorted) on undirected graphs so (u,v) and (v,u) collide.
type edgeKey [2]graph.NodeID

func (s *Server) canonEdge(ch graph.EdgeChange) edgeKey {
	if s.undirected && ch.V < ch.U {
		return edgeKey{ch.V, ch.U}
	}
	return edgeKey{ch.U, ch.V}
}

// fused accumulates compatible queued mutations into one backend batch.
// Owned by the writer of the moment; all storage is reused across flushes.
type fused struct {
	reqs  []*updateReq
	delta graph.Delta
	vups  []inkstream.VertexUpdate
	edges map[edgeKey]struct{}
	nodes map[graph.NodeID]struct{}
}

func newFused() *fused {
	return &fused{
		edges: make(map[edgeKey]struct{}),
		nodes: make(map[graph.NodeID]struct{}),
	}
}

func (f *fused) reset() {
	f.reqs = f.reqs[:0]
	f.delta = f.delta[:0]
	f.vups = f.vups[:0]
	clear(f.edges)
	clear(f.nodes)
}

// conflicts reports whether r is compatible with the open fused batch.
// Incompatible means the fused batch could validate or apply differently
// than the one-at-a-time sequence would:
//
//   - same logical edge touched twice (Delta.Validate rejects duplicate
//     edges in one batch, and insert-then-remove of one edge is order-
//     dependent);
//   - same node's features rewritten twice (validateVertexUpdates rejects
//     duplicate nodes, and last-writer-wins is order-dependent).
//
// Everything else is independent: a change's validity depends only on the
// current presence of its own edge and the range/dim of its own node.
func (s *Server) conflicts(f *fused, r *updateReq) bool {
	if len(f.reqs) == 0 {
		return false
	}
	for _, ch := range r.delta {
		if _, ok := f.edges[s.canonEdge(ch)]; ok {
			return true
		}
	}
	for _, v := range r.vups {
		if _, ok := f.nodes[v.Node]; ok {
			return true
		}
	}
	return false
}

// addFused folds r into the open batch.
func (s *Server) addFused(f *fused, r *updateReq) {
	r.mark(obs.StageCoalesce)
	f.reqs = append(f.reqs, r)
	f.delta = append(f.delta, r.delta...)
	f.vups = append(f.vups, r.vups...)
	for _, ch := range r.delta {
		f.edges[s.canonEdge(ch)] = struct{}{}
	}
	for _, v := range r.vups {
		f.nodes[v.Node] = struct{}{}
	}
}

// flushFused applies the open batch (fused when it covers more than one
// request), publishes the covering snapshot, and only then acknowledges
// every request in it. A fused apply that fails — some request's changes
// were invalid, and Backend.Apply is all-or-nothing, so the state is
// untouched — falls back to replaying the requests one at a time, which
// routes the error to exactly the offending request(s). No-op on an empty
// batch.
func (s *Server) flushFused(f *fused) {
	n := len(f.reqs)
	if n == 0 {
		return
	}
	s.coSize.Observe(int64(n))
	if round, err := s.backend.Apply(f.delta, f.vups, n); err == nil {
		s.updates.Add(int64(n))
		for _, r := range f.reqs {
			r.round = round
		}
	} else if n == 1 {
		f.reqs[0].err = err
	} else {
		s.coFallbacks.Add(1)
		for _, r := range f.reqs {
			s.applyOne(r)
		}
	}
	var eng *obs.Trace
	for _, r := range f.reqs {
		r.fused = n
		r.mark(obs.StageApply)
		// One engine-trace clone covers the whole fused batch; it is only
		// taken when some request in it will be recorded.
		s.attachEngineTrace(r, &eng)
	}
	s.backend.PublishSnapshot()
	s.processed.Add(uint64(n))
	for _, r := range f.reqs {
		r.mark(obs.StagePublish)
		s.finish(r, r.err)
	}
	f.reset()
}

// applyOne applies one request on its own.
func (s *Server) applyOne(r *updateReq) {
	r.round, r.err = s.backend.Apply(r.delta, r.vups, 1)
	if r.err == nil {
		s.updates.Add(1)
	}
}

// coalesceGroup folds one journaled group into the open batch without the
// trailing flush (the caller decides when the coalescing window closes):
// compatible mutations fuse, a conflicting one flushes the open batch
// first (counted as a stall), op requests (exclusive operations like
// /v1/verify) act as full barriers — flush, run, acknowledge — so they
// still observe a quiesced engine, and the batch is bounded by maxGroup
// so coalescing cannot defer an acknowledgement indefinitely.
func (s *Server) coalesceGroup(group []*updateReq, f *fused) {
	for _, r := range group {
		if r.op != nil {
			s.flushFused(f)
			r.mark(obs.StageCoalesce)
			r.err = r.op()
			r.mark(obs.StageApply)
			s.finish(r, r.err)
			continue
		}
		if s.conflicts(f, r) {
			s.coStalls.Add(1)
			s.flushFused(f)
		}
		s.addFused(f, r)
		if len(f.reqs) >= maxGroup {
			s.flushFused(f)
		}
	}
}
