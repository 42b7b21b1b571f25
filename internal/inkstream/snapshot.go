package inkstream

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Snapshot is an immutable, epoch-stamped copy of the final-layer
// embeddings plus the serving-relevant summary state. Snapshots are built
// copy-on-write from the rows the engine actually touched since the last
// publication, published through an atomic pointer, and never mutated
// afterwards — any number of readers may hold one (and read its rows)
// with no locking while the single writer keeps applying updates.
type Snapshot struct {
	// Epoch counts publications; the first published snapshot has epoch 1.
	// A reader that resolved a row against this snapshot observed the
	// engine state as of this epoch (the staleness bound it can report).
	Epoch uint64
	// AppliedBatches is the number of successful Apply calls reflected in
	// this snapshot; the gap to the engine's accepted-batch count is the
	// snapshot lag.
	AppliedBatches uint64
	// Nodes and Edges describe the maintained graph at publication time.
	Nodes, Edges int
	// Conditions is a copy of the cumulative per-condition visit
	// statistics at publication time.
	Conditions ConditionStats

	rows []tensor.Vector
	// view is the sealed row-store generation backing this snapshot when
	// the engine has a RowStore attached; rows is nil in that mode.
	view RowView
}

// NumNodes returns the number of embedding rows in the snapshot.
func (s *Snapshot) NumNodes() int {
	if s.view != nil {
		return s.view.NumRows()
	}
	return len(s.rows)
}

// Row returns node i's embedding as of this snapshot's epoch. The returned
// vector is immutable by contract: callers must not write to it, and may
// read it indefinitely without holding any lock. In tiered mode (a RowStore
// is attached) a row that cannot be faulted back in returns nil; see
// RowView for the superseded-view staleness semantics.
func (s *Snapshot) Row(i int) tensor.Vector {
	if s.view != nil {
		v, err := s.view.Row(i)
		if err != nil {
			return nil
		}
		return v
	}
	return s.rows[i]
}

// snapState is the engine's snapshot machinery. Dirty-output tracking is
// off until the first PublishSnapshot call so engines that never serve
// snapshots (experiments, benchmarks) pay nothing.
type snapState struct {
	cur      atomic.Pointer[Snapshot]
	tracking bool
	// dirty holds the output rows written with a changed value since the
	// last publication; retained and cleared in place across publications.
	dirty map[graph.NodeID]struct{}
	// applied counts successful Apply calls (for Snapshot.AppliedBatches).
	applied uint64
	// all forces the next publication to re-clone every row (set by
	// Refresh, which replaces the whole state).
	all bool
	// store, when non-nil, backs publications instead of resident clones
	// (see SetRowStore).
	store RowStore
}

// Snapshot returns the most recently published snapshot, or nil when
// PublishSnapshot has never been called. Safe to call from any goroutine.
func (e *Engine) Snapshot() *Snapshot { return e.snap.cur.Load() }

// DirtyRows returns the sorted IDs of the output rows whose embedding
// changed since the last PublishSnapshot. It returns nil until tracking is
// enabled by the first PublishSnapshot call. Like Apply, it must only be
// called from the writer goroutine.
func (e *Engine) DirtyRows() []graph.NodeID {
	if len(e.snap.dirty) == 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, len(e.snap.dirty))
	for id := range e.snap.dirty {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// markDirty records an output-row write; no-op until tracking is enabled.
func (e *Engine) markDirty(u graph.NodeID) {
	if !e.snap.tracking {
		return
	}
	if e.snap.dirty == nil {
		e.snap.dirty = make(map[graph.NodeID]struct{})
	}
	e.snap.dirty[u] = struct{}{}
}

// markAllDirty forces the next publication to re-clone every row.
func (e *Engine) markAllDirty() {
	if e.snap.tracking {
		e.snap.all = true
	}
}

// PublishSnapshot builds a new immutable snapshot of the final-layer
// embeddings and publishes it atomically, then clears the dirty-row set.
// The first call clones every row and enables dirty tracking; subsequent
// calls share every clean row with the previous snapshot and clone only
// the rows Apply touched since (copy-on-write), so steady-state publication
// cost is proportional to the affected area, not the graph.
//
// Must only be called from the writer goroutine (the same discipline as
// Apply); the returned snapshot may be read from anywhere.
func (e *Engine) PublishSnapshot() *Snapshot {
	prev := e.snap.cur.Load()
	out := e.state.Output()
	n := e.g.NumNodes()
	if e.snap.store != nil {
		return e.publishTiered(prev, out, n)
	}
	rows := make([]tensor.Vector, n)
	switch {
	case prev == nil || e.snap.all:
		for i := range rows {
			rows[i] = out.Row(i).Clone()
		}
		e.snap.all = false
	default:
		copy(rows, prev.rows)
		// Rows beyond the previous snapshot (AddNode growth) are all new.
		for i := len(prev.rows); i < n; i++ {
			rows[i] = out.Row(i).Clone()
		}
		for id := range e.snap.dirty {
			if int(id) < n {
				rows[id] = out.Row(int(id)).Clone()
			}
		}
	}
	s := &Snapshot{
		Epoch:          1,
		AppliedBatches: e.snap.applied,
		Nodes:          n,
		Edges:          e.g.NumEdges(),
		Conditions:     e.stats,
		rows:           rows,
	}
	if prev != nil {
		s.Epoch = prev.Epoch + 1
	}
	e.snap.cur.Store(s)
	e.snap.tracking = true
	if len(e.snap.dirty) > 0 {
		clear(e.snap.dirty)
	}
	return s
}

// publishTiered is the RowStore-backed publication path: changed rows are
// written (encoded) into the store, the store seals an epoch-stamped view,
// and the previous snapshot's view is released so its frames become
// eligible for eviction. Copy-on-write happens inside the store at page
// granularity; untouched rows keep their previously encoded bytes verbatim
// so quantization error never compounds across epochs.
func (e *Engine) publishTiered(prev *Snapshot, out *tensor.Matrix, n int) *Snapshot {
	st := e.snap.store
	switch {
	case prev == nil || e.snap.all:
		for i := 0; i < n; i++ {
			st.WriteRow(i, out.Row(i))
		}
		e.snap.all = false
	default:
		// Rows beyond the previous snapshot (AddNode growth) are all new.
		for i := prev.NumNodes(); i < n; i++ {
			st.WriteRow(i, out.Row(i))
		}
		for id := range e.snap.dirty {
			if int(id) < n {
				st.WriteRow(int(id), out.Row(int(id)))
			}
		}
	}
	epoch := uint64(1)
	if prev != nil {
		epoch = prev.Epoch + 1
	}
	s := &Snapshot{
		Epoch:          epoch,
		AppliedBatches: e.snap.applied,
		Nodes:          n,
		Edges:          e.g.NumEdges(),
		Conditions:     e.stats,
		view:           st.Seal(epoch),
	}
	e.snap.cur.Store(s)
	if prev != nil && prev.view != nil {
		prev.view.Release()
	}
	e.snap.tracking = true
	if len(e.snap.dirty) > 0 {
		clear(e.snap.dirty)
	}
	return s
}
