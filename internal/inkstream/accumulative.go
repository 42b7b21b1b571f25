package inkstream

import (
	"repro/internal/gnn"
	"repro/internal/metrics"
)

// applyAccumulative implements Sec. II-C2: with a fully reversible
// aggregation, the grouped (already summed) Update payloads evolve the old
// aggregated neighborhood directly.
//
//	sum:  α = α⁻ + Σ msg
//	mean: α = (d⁻·α⁻ + Σ msg) / d
//
// where Σ msg combines the per-neighbor deltas Δm = m − m⁻, the negated
// messages of removed edges and the messages of inserted edges, and d⁻/d
// are the in-degrees before/after ΔG. Its work is charged to t.
func (e *Engine) applyAccumulative(l int, g *group, t *metrics.Tally) {
	agg := e.model.Layers[l].Agg()
	u := g.target
	alpha := e.state.Alpha[l].Row(int(u))
	dim := len(alpha)
	t.FetchVec(dim)
	t.AddFLOPs(int64(dim * (g.n + 1)))

	switch agg.Kind() {
	case gnn.AggSum:
		for i := range alpha {
			alpha[i] += g.sum[i]
		}
	case gnn.AggMean:
		d := e.g.InDegree(u)
		dOld := d - int(e.degDelta[u])
		if d == 0 {
			for i := range alpha {
				alpha[i] = 0
			}
		} else {
			inv := 1 / float32(d)
			scale := float32(dOld)
			for i := range alpha {
				alpha[i] = (scale*alpha[i] + g.sum[i]) * inv
			}
		}
	default:
		panic("inkstream: accumulative path invoked for " + agg.Kind().String())
	}
	t.StoreVec(dim)
}
