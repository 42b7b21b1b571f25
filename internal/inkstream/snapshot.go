package inkstream

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Snapshot rows live in blocks of blockRows contiguous rows, each one
// pointer-free []float32, and the blocks in groups of groupBlocks: a
// snapshot is a root of group pointers. A publication copies the root and
// only the groups and blocks that hold a fresh row (DESIGN.md §7.1).
const (
	blockShift  = 2
	blockRows   = 1 << blockShift
	groupShift  = 4
	groupBlocks = 1 << groupShift
	// rootShift maps a row to its group's index in the root.
	rootShift = blockShift + groupShift
)

// snapGroup holds groupBlocks blocks. In a snapshot's last group the blocks
// past its rows are nil, and its last block may hold fewer than blockRows
// rows.
type snapGroup [groupBlocks][]float32

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

	// root[i>>rootShift] is the group of row i, its block is entry
	// (i>>blockShift)&(groupBlocks-1) of that group, and the row starts
	// (i&(blockRows-1))*width floats into the block. A group or block no
	// fresh row touched is shared with the previous snapshot.
	root     []*snapGroup
	n, width int
}

// NumNodes returns the number of embedding rows in the snapshot.
func (s *Snapshot) NumNodes() int { return s.n }

// Row returns node i's embedding as of this snapshot's epoch; i must be in
// [0, NumNodes()), and the result is never nil. The returned vector is
// immutable by contract: callers must not write to it, and may read it
// indefinitely without holding any lock.
func (s *Snapshot) Row(i int) tensor.Vector {
	blk := s.root[i>>rootShift][(i>>blockShift)&(groupBlocks-1)]
	lo := (i & (blockRows - 1)) * s.width
	return blk[lo : lo+s.width : lo+s.width]
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
	// blockMarks is publication scratch, retained across publications and all
	// false between them: which blocks below the growth hold a dirty row.
	blockMarks []bool
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

// PublishSnapshot builds a new immutable snapshot of the final-layer
// embeddings and publishes it atomically, then clears the dirty-row set.
// The first call copies every row and enables dirty tracking; subsequent
// calls copy the previous snapshot's root and only the groups and blocks
// holding a row Apply touched since (copy-on-write), so steady-state
// publication costs O(n/(blockRows·groupBlocks) + dirty blocks), not O(n) —
// unless at least half the blocks are fresh, when one copy of the output
// replaces their clones (cowBlocks).
//
// Must only be called from the writer goroutine (the same discipline as
// Apply); the returned snapshot may be read from anywhere.
func (e *Engine) PublishSnapshot() *Snapshot {
	prev := e.snap.cur.Load()
	out := e.state.Output()
	n := e.g.NumNodes()
	s := &Snapshot{
		Epoch:          1,
		AppliedBatches: e.snap.applied,
		Nodes:          n,
		Edges:          e.g.NumEdges(),
		Conditions:     e.stats,
		root:           e.cowBlocks(prev, out, n),
		n:              n,
		width:          out.Cols,
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

// cowBlocks builds the root of the first n rows of out from prev, the
// previous snapshot (nil to copy every block). A block is fresh when it
// holds a dirty row or a row past prev's (AddNode growth). When prev is not
// nil and at least half the blocks are fresh, out's data is copied once and
// every block points into that copy, which costs what half the blocks'
// copies would. Otherwise each fresh block is copied from out, whose clean
// rows equal prev's, into a private copy of its group, and every other
// group and block is shared. A live snapshot therefore holds at most one
// copy of out's data plus the blocks and groups copied since. The first
// snapshot copies block by block: one copy stays whole while any block
// points into it, which on a stream whose publishes stay below half keeps a
// second copy of every block re-copied since. The dirty list is walked
// twice: to mark and count the fresh blocks, then to copy and unmark them.
func (e *Engine) cowBlocks(prev *Snapshot, out *tensor.Matrix, n int) []*snapGroup {
	nb := (n + blockRows - 1) >> blockShift
	root := make([]*snapGroup, (nb+groupBlocks-1)>>groupShift)
	var from int
	var prevRoot []*snapGroup
	if prev != nil {
		from, prevRoot = prev.n, prev.root
	}
	grown := nb // the first block holding a row past prev's
	if from < n {
		grown = from >> blockShift
	}
	if len(e.snap.blockMarks) < nb {
		e.snap.blockMarks = append(e.snap.blockMarks, make([]bool, nb-len(e.snap.blockMarks))...)
	}
	mark, fresh := e.snap.blockMarks, nb-grown
	for _, id := range e.snap.dirty {
		if b := int(id) >> blockShift; b < grown && !mark[b] {
			mark[b] = true
			fresh++
		}
	}
	w, start := out.Cols, grown
	var data []float32
	if prev != nil && 2*fresh >= nb {
		data, prevRoot, start = slices.Clone(out.Data[:n*w]), nil, 0
	}
	copy(root, prevRoot)
	place := func(b int) {
		lo, hi := b<<blockShift*w, min((b+1)<<blockShift, n)*w
		var blk []float32
		if data != nil {
			blk = data[lo:hi:hi]
		} else {
			blk = append(make([]float32, 0, hi-lo), out.Data[lo:hi]...)
		}
		ownGroup(root, prevRoot, b>>groupShift)[b&(groupBlocks-1)] = blk
	}
	for b := start; b < nb; b++ {
		place(b)
	}
	for _, id := range e.snap.dirty {
		if b := int(id) >> blockShift; b < grown && mark[b] {
			mark[b] = false
			if data == nil {
				place(b)
			}
		}
	}
	return root
}

// ownGroup returns group gi of root as one this publication may write:
// prev's group copied on first use, or a new one past prev's groups.
func ownGroup(root, prev []*snapGroup, gi int) *snapGroup {
	g := root[gi]
	switch {
	case gi < len(prev) && g == prev[gi]:
		c := *g
		g = &c
	case g == nil:
		g = new(snapGroup)
	default:
		return g
	}
	root[gi] = g
	return g
}
