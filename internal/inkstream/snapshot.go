package inkstream

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Snapshot rows live in fixed chunks of chunkRows rows, so a publication
// copies one pointer per chunk and clones only the chunks that hold a dirty
// row (DESIGN.md §7.1).
const (
	chunkShift = 6
	chunkRows  = 1 << chunkShift
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

	// rows[c] holds rows c*chunkRows … c*chunkRows+chunkRows-1; every chunk
	// but the last is full. A chunk no dirty row touched is shared with the
	// previous snapshot.
	rows [][]tensor.Vector
}

// NumNodes returns the number of embedding rows in the snapshot.
func (s *Snapshot) NumNodes() int { return numRows(s.rows) }

// numRows counts the rows of a chunk table.
func numRows(chunks [][]tensor.Vector) int {
	if len(chunks) == 0 {
		return 0
	}
	last := len(chunks) - 1
	return last<<chunkShift + len(chunks[last])
}

// Row returns node i's embedding as of this snapshot's epoch; i must be in
// [0, NumNodes()), and the result is never nil. The returned vector is
// immutable by contract: callers must not write to it, and may read it
// indefinitely without holding any lock.
func (s *Snapshot) Row(i int) tensor.Vector {
	return s.rows[i>>chunkShift][i&(chunkRows-1)]
}

// snapState is the engine's snapshot machinery. Dirty-output tracking is
// off until the first PublishSnapshot call so engines that never serve
// snapshots (experiments, benchmarks) pay nothing.
type snapState struct {
	cur      atomic.Pointer[Snapshot]
	tracking bool
	// dirty lists the output rows written with a changed value since the
	// last publication, once each in first-write order; marked[u] says u is
	// listed. Publication clears the marks of the listed rows and empties
	// the list, so its cost follows the rows written, whatever the node
	// count; marked grows with AddNode.
	dirty  []graph.NodeID
	marked []bool
	// applied counts successful Apply calls (for Snapshot.AppliedBatches).
	applied uint64
	// all forces the next publication to re-clone every row (set by
	// Refresh, which replaces the whole state).
	all bool
	// own is publication scratch, retained across publications: which
	// chunks of the next table are private copies.
	own []bool
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
	out := slices.Clone(e.snap.dirty)
	slices.Sort(out)
	return out
}

// markDirty records an output-row write; no-op until tracking is enabled.
func (e *Engine) markDirty(u graph.NodeID) {
	if !e.snap.tracking || e.snap.marked[u] {
		return
	}
	e.snap.marked[u] = true
	e.snap.dirty = append(e.snap.dirty, u)
}

// growDirty extends the dirty marks to n nodes once tracking is on (AddNode).
func (e *Engine) growDirty(n int) {
	if e.snap.tracking {
		e.snap.marked = append(e.snap.marked, make([]bool, n-len(e.snap.marked))...)
	}
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
// calls copy the previous snapshot's chunk pointers, copy only the chunks
// holding a row Apply touched since, and re-clone just those rows
// (copy-on-write), so steady-state publication costs O(n/chunkRows + dirty
// chunks), not O(n).
//
// Must only be called from the writer goroutine (the same discipline as
// Apply); the returned snapshot may be read from anywhere.
func (e *Engine) PublishSnapshot() *Snapshot {
	prev := e.snap.cur.Load()
	out := e.state.Output()
	n := e.g.NumNodes()
	// Refresh replaced the whole state: rebuild as on the first publication.
	var prevRows [][]tensor.Vector
	if prev != nil && !e.snap.all {
		prevRows = prev.rows
	}
	e.snap.all = false
	s := &Snapshot{
		Epoch:          1,
		AppliedBatches: e.snap.applied,
		Nodes:          n,
		Edges:          e.g.NumEdges(),
		Conditions:     e.stats,
		rows:           e.cowChunks(prevRows, out, n),
	}
	if prev != nil {
		s.Epoch = prev.Epoch + 1
	}
	e.snap.cur.Store(s)
	if !e.snap.tracking {
		e.snap.tracking = true
		e.snap.marked = make([]bool, n)
	}
	for _, u := range e.snap.dirty {
		e.snap.marked[u] = false
	}
	e.snap.dirty = e.snap.dirty[:0]
	return s
}

// cowChunks builds the chunk table of the first n rows of out from prev,
// the previous table (nil to clone every row). Rows past prev's (AddNode
// growth) and dirty rows are re-cloned into private copies of their chunks;
// every other chunk is shared. When at least half the chunks need a copy,
// every chunk is copied into one allocation, which costs what a flat row
// array would; otherwise each copied chunk is its own allocation, so a chunk
// that later tables keep sharing pins only itself. A live table therefore
// holds at most one multi-chunk allocation. The dirty list is walked twice,
// once to pick the chunks to copy and once, after copying, to re-clone its
// rows.
func (e *Engine) cowChunks(prev [][]tensor.Vector, out *tensor.Matrix, n int) [][]tensor.Vector {
	rows := make([][]tensor.Vector, (n+chunkRows-1)>>chunkShift)
	copy(rows, prev)
	from := numRows(prev)
	own := slices.Grow(e.snap.own[:0], len(rows))[:len(rows)]
	clear(own)
	if from < n {
		for c := from >> chunkShift; c < len(own); c++ {
			own[c] = true
		}
	}
	for _, id := range e.snap.dirty {
		if i := int(id); i < from {
			own[i>>chunkShift] = true
		}
	}
	copied := 0
	for _, o := range own {
		if o {
			copied++
		}
	}
	if 2*copied >= len(own) {
		flat := make([]tensor.Vector, n)
		for c := range rows {
			lo := c << chunkShift
			hi := min(lo+chunkRows, n)
			copy(flat[lo:hi], rows[c])
			rows[c] = flat[lo:hi:hi]
		}
	} else {
		for c, o := range own {
			if o {
				ch := make([]tensor.Vector, min(chunkRows, n-c<<chunkShift))
				copy(ch, rows[c])
				rows[c] = ch
			}
		}
	}
	for i := from; i < n; i++ {
		rows[i>>chunkShift][i&(chunkRows-1)] = out.Row(i).Clone()
	}
	for _, id := range e.snap.dirty {
		if i := int(id); i < from {
			rows[i>>chunkShift][i&(chunkRows-1)] = out.Row(i).Clone()
		}
	}
	e.snap.own = own
	return rows
}
