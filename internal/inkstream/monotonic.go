package inkstream

import (
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// applyMonotonic implements Sec. II-C1 at channel granularity. The grouped
// events heading to one target arrive reduced to m⁻_A (g.mDel) and m_A
// (g.mAdd), folded while they were routed (grouper.addPair), and every
// channel of α⁻ is classified on its own, because each channel's
// extremum is an independent selection: a channel that lost no witness
// (α⁻[i] ≠ m⁻_A[i]) merges m_A[i]; a reset channel that m_A[i] covers takes
// the merge too, which is m_A[i]; only the remaining exposed channels D are
// rebuilt from the current neighborhood (rebuildChannels). So α⁻ is merged
// with m_A over the whole row in one Aggregator.Merge, and a scalar scan of
// the reset channels then collects D, whose merged values rebuildChannels
// overwrites. The node's Fig. 8 class follows from the channels — exposed
// reset iff D ≠ ∅, else covered reset iff any channel reset — so it is the
// class the whole-row rule gave. Returns whether α actually changed and the
// classification.
func (e *Engine) applyMonotonic(l int, g *group, sc *scratch) (changed bool, cond Condition) {
	agg := e.model.Layers[l].Agg()
	alpha := e.state.Alpha[l].Row(int(g.target))
	dim := len(alpha)
	t := &sc.t
	t.FetchVec(dim)
	t.AddFLOPs(int64(dim * g.n))
	staged := sc.staged

	if e.g.InDegree(g.target) == int(e.degDelta[g.target]) {
		// α⁻ of a previously isolated node is the *defined* zero vector, not
		// a monotonic aggregation result: there is no reduced deletion to
		// classify against and merging into it would be unsound, so the first
		// edges of such a node force a (trivially cheap) whole-row recompute.
		e.recomputeAlpha(l, g.target, staged, t)
		cond = CondExposedReset
	} else {
		mDel, mAdd := g.mDel, g.mAdd
		copy(staged, alpha)
		if mAdd != nil {
			agg.Merge(staged, mAdd)
			t.AddFLOPs(int64(dim))
		}
		// Only the reduced deletion can attain the old extremum: the deleted
		// messages are a subset of the neighborhood α⁻ aggregates.
		isMax := agg.Kind() == gnn.AggMax
		exposed := sc.exposed[:0] // cap dim: never grows
		reset := false
		if mDel != nil {
			for i, a := range alpha {
				if a != mDel[i] {
					continue
				}
				reset = true
				if mAdd == nil || (isMax && mAdd[i] < a) || (!isMax && mAdd[i] > a) {
					exposed = append(exposed, int32(i))
				}
			}
		}
		switch {
		case len(exposed) > 0:
			e.rebuildChannels(l, g.target, isMax, exposed, staged, t)
			cond = CondExposedReset
		case reset:
			cond = CondCoveredReset
		default:
			cond = CondNoReset
		}
	}

	changed = !staged.Equal(alpha)
	if changed {
		copy(alpha, staged)
		t.StoreVec(dim)
	}
	return changed, cond
}

// rebuildChannels recomputes the exposed channels D of α_{l,u} into dst by one
// scan of the current in-neighborhood that reads only the D columns of m_l
// (Algorithm 1 line 11, restricted to what the batch invalidated). Max/min
// never compute a value, they select one per channel, in neighbor order with
// ties kept by the first holder, so each rebuilt channel is bit-identical to
// the same channel of a whole-row recomputeAlpha. A rebuilt channel can only
// move away from the extremum: max(α⁻[i], m_A[i]) bounds it (min for AggMin).
// On a dense graph each channel is one loop over its contiguous column of
// the message copy (columns.go); on a sparse one the scan reads m_l's rows.
// Either way its work is charged to t as |D|·deg.
func (e *Engine) rebuildChannels(l int, u graph.NodeID, isMax bool, D []int32, dst tensor.Vector, t *metrics.Tally) {
	nbrs := e.g.InNeighbors(u)
	m := e.state.M[l]
	t.FetchVec(len(D) * len(nbrs))
	t.AddFLOPs(int64(len(D) * len(nbrs)))
	if len(nbrs) == 0 {
		// Every in-neighbor was deleted: the defined zero row (Finalize).
		for _, i := range D {
			dst[i] = 0
		}
		return
	}
	if e.cols.data != nil {
		for _, i := range D {
			dst[i] = columnExtremum(e.cols.column(l, i), nbrs, isMax)
		}
		return
	}
	if len(D) == 1 {
		// One exposed channel (the common case): a plain column loop.
		col := m.Data[D[0]:]
		best := col[int(nbrs[0])*m.Cols]
		if isMax {
			for _, v := range nbrs[1:] {
				if x := col[int(v)*m.Cols]; !(best >= x) {
					best = x
				}
			}
		} else {
			for _, v := range nbrs[1:] {
				if x := col[int(v)*m.Cols]; !(best <= x) {
					best = x
				}
			}
		}
		dst[D[0]] = best
		return
	}
	first := m.Row(int(nbrs[0]))
	for _, i := range D {
		dst[i] = first[i]
	}
	if isMax {
		for _, v := range nbrs[1:] {
			row := m.Row(int(v))
			for _, i := range D {
				if x := row[i]; !(dst[i] >= x) {
					dst[i] = x
				}
			}
		}
	} else {
		for _, v := range nbrs[1:] {
			row := m.Row(int(v))
			for _, i := range D {
				if x := row[i]; !(dst[i] <= x) {
					dst[i] = x
				}
			}
		}
	}
}

// columnExtremum selects the maximum (minimum unless isMax) of col over the
// non-empty nbrs, in neighbor order with ties kept by the first holder.
func columnExtremum(col []float32, nbrs []graph.NodeID, isMax bool) float32 {
	best := col[nbrs[0]]
	if isMax {
		for _, v := range nbrs[1:] {
			if x := col[v]; !(best >= x) {
				best = x
			}
		}
	} else {
		for _, v := range nbrs[1:] {
			if x := col[v]; !(best <= x) {
				best = x
			}
		}
	}
	return best
}

// recomputeAlpha rebuilds the whole row α_{l,u} into dst from the current
// neighborhood and cached messages: α = 𝒜(m_{l,v} : v ∈ N(u)). No extra
// computation is needed for the messages themselves — rows of m_l for
// neighbors affected at layer l−1 were refreshed when that layer was
// processed. It serves only the two cases with no reduced deletion to
// classify channels against: a previously isolated target, and the
// grouping ablation below. Its reads are charged to t; the caller charges
// the store if dst is state.
func (e *Engine) recomputeAlpha(l int, u graph.NodeID, dst tensor.Vector, t *metrics.Tally) {
	agg := e.model.Layers[l].Agg()
	nbrs := e.g.InNeighbors(u)
	agg.Identity(dst)
	m := e.state.M[l]
	for _, v := range nbrs {
		agg.Merge(dst, m.Row(int(v)))
	}
	agg.Finalize(dst, len(nbrs))
	dim := len(dst)
	t.FetchVec(dim * len(nbrs))
	t.AddFLOPs(int64(dim * len(nbrs)))
}

// applyMonotonicUngrouped is the grouping-ablation path (Fig. 4d): events
// are applied one at a time in arrival order. A deletion that resets any
// channel cannot see the not-yet-applied additions, so it conservatively
// recomputes the whole neighborhood — correct (monotonic aggregation over
// the post-ΔG neighborhood is idempotent under re-addition) but costly.
func (e *Engine) applyMonotonicUngrouped(l int, g *group, sc *scratch) (changed bool, cond Condition) {
	layer := e.model.Layers[l]
	agg := layer.Agg()
	alpha := e.state.Alpha[l].Row(int(g.target))
	dim := len(alpha)
	t := &sc.t
	before := sc.staged
	copy(before, alpha)
	recomputed := false
	if e.g.InDegree(g.target) == int(e.degDelta[g.target]) {
		// See applyMonotonic: a previously empty neighborhood cannot be
		// evolved incrementally.
		e.recomputeAlpha(l, g.target, alpha, t)
		t.StoreVec(dim)
		return !alpha.Equal(before), CondExposedReset
	}
	for _, d := range g.dels {
		t.FetchVec(dim)
		needReset := false
		for i := range alpha {
			if alpha[i] == d[i] {
				needReset = true
				break
			}
		}
		if needReset {
			e.recomputeAlpha(l, g.target, alpha, t)
			t.StoreVec(dim)
			recomputed = true
		}
	}
	for _, a := range g.adds {
		t.FetchVec(dim)
		agg.Merge(alpha, a)
		t.AddFLOPs(int64(dim))
	}
	changed = !alpha.Equal(before)
	if changed {
		t.StoreVec(dim)
	}
	if recomputed {
		return changed, CondExposedReset
	}
	return changed, CondNoReset
}
