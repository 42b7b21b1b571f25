package shard

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
)

// This file is the cross-shard seam: the round protocol, with
// subscription-filtered record delivery (DESIGN.md §7.4).
//
// A shard only ever reads the ghost rows of vertices it has an in-arc from.
// The router therefore keeps, per shard, a refcount of live cross-shard arcs
// per remote source — the shard's subscriptions — and delivers each
// message-change record only to its producer (fan-out over its own arcs) and
// its subscribers (ghost refresh + fan-out). The per-target event sequence
// each engine regenerates is the one delivering every record everywhere
// would give: records a shard never receives are exactly the records whose
// sources have no arc into the shard, i.e. records that regenerate zero
// local events — so filtering shrinks the delivery set, never the event
// order, and the §7.5 bit-exactness argument holds unchanged.
//
// Subscriptions move with the cut: the apply goroutine folds each round's
// arc changes into the refcounts before opening the round, and when a shard
// subscribes to a source it was not watching (refcount 0 → 1) it first
// adopts the owner's current message rows — ghost hydration, the mid-stream
// analogue of the bootstrap ghost seeding. Removal rounds need no special
// case: the removed arc existed, so its source was already subscribed and
// its pre-round ghost rows are current for the removal's old-message
// snapshot; dropping the subscription in the same round is safe because the
// arc is gone before any event could need a fresher row.

// initSubscriptions builds the subscription tables from the shard graphs:
// shard s's graph holds exactly the arcs into s-owned vertices, so the
// out-degree of a remote vertex u there is the number of live arcs from u
// into s. Called once at construction; replayed rounds maintain the tables
// like live ones.
func (rt *Router) initSubscriptions() {
	rt.subs = make([]map[graph.NodeID]int, len(rt.shards))
	for s, st := range rt.shards {
		rt.subs[s] = make(map[graph.NodeID]int)
		g := st.eng.Graph()
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			if d := len(g.OutNeighbors(u)); d > 0 && rt.part.Owner(u) != s {
				rt.subs[s][u] = d
			}
		}
	}
}

// prepareRoundRouting folds one round's arc changes into the subscription
// tables, then hydrates every new subscription (refcount 0 → 1 on a remote
// source) by copying the owner's current message rows into the subscriber's
// ghost rows — all before the round opens, on the apply goroutine, while
// every engine is idle.
func (rt *Router) prepareRoundRouting(r *round) error {
	type hydration struct {
		shard int
		node  graph.NodeID
	}
	var fresh []hydration
	for s := range r.subDelta {
		for _, ch := range r.subDelta[s] {
			if rt.part.Owner(ch.U) == s { // destination owner is s by routing
				continue
			}
			if ch.Insert {
				if rt.subs[s][ch.U]++; rt.subs[s][ch.U] == 1 {
					fresh = append(fresh, hydration{s, ch.U})
				}
			} else if rt.subs[s][ch.U]--; rt.subs[s][ch.U] == 0 {
				delete(rt.subs[s], ch.U)
			}
		}
	}
	for _, h := range fresh {
		owner := rt.shards[rt.part.Owner(h.node)].eng
		for l := 0; l < rt.model.NumLayers(); l++ {
			row, err := owner.MessageRow(l, h.node)
			if err != nil {
				return fmt.Errorf("hydrating node %d layer %d: %w", h.node, l, err)
			}
			if err := rt.shards[h.shard].eng.SetGhostMessageRow(l, h.node, row); err != nil {
				return fmt.Errorf("hydrating node %d layer %d on shard %d: %w", h.node, l, h.shard, err)
			}
		}
	}
	return nil
}

// deliver rebuilds the delivery lists from every shard's records (outs[i]
// nil for a shard that produced none): the producing shard always receives
// its own records (it regenerates local fan-out from them), other shards
// only when subscribed. Each list ends node-sorted; every source node's
// record is produced by exactly one shard, so the order is total and
// deterministic. Returns the remote deliveries, suppressed deliveries and
// delivered bytes for the round counters.
func (rt *Router) deliver(outs [][]inkstream.MessageChange) (delivered, filtered int, bytes int64) {
	deliv := rt.deliv
	for s := range deliv {
		deliv[s] = deliv[s][:0]
	}
	for src, recs := range outs {
		for _, rec := range recs {
			deliv[src] = append(deliv[src], rec)
			recBytes := int64(4 * (len(rec.Old) + len(rec.New)))
			for s := range deliv {
				if s == src {
					continue
				}
				if rt.subs[s][rec.Node] > 0 {
					deliv[s] = append(deliv[s], rec)
					delivered++
					bytes += recBytes
				} else {
					filtered++
				}
			}
		}
	}
	for s := range deliv {
		slices.SortFunc(deliv[s], func(a, b inkstream.MessageChange) int { return cmp.Compare(a.Node, b.Node) })
	}
	return delivered, filtered, bytes
}

// executeRound runs one BSP round: BeginRound on every shard, then the
// layers in lockstep, then FinishRound and a snapshot publish on every
// shard. Each layer is one barrier stage — every participating shard's
// RoundLayer over its delivery list — after which the apply goroutine
// buckets all the stage's records into the next layer's delivery lists.
// Shards with an empty sub-batch, an empty delivery list and no carried
// hook events skip the layer call entirely — the idle half of a
// partitioned deployment stops paying the lockstep tax. A 1-shard
// deployment runs the same code with nothing subscribed: no remote
// deliveries.
func (rt *Router) executeRound(r *round) error {
	n := len(rt.shards)
	prof := r.prof
	var durs []time.Duration
	if prof != nil {
		durs = make([]time.Duration, n)
	}
	if err := rt.prepareRoundRouting(r); err != nil {
		return fmt.Errorf("routing: %w", err)
	}

	outs, err := rt.beginRound(r, durs)
	if err != nil {
		return err
	}
	t0 := time.Now()
	delivered, filtered, dBytes := rt.deliver(outs)
	bcast := time.Since(t0)

	skip := make([]bool, n)
	for l := 0; l < rt.model.NumLayers(); l++ {
		rt.boundaryRecs.Add(int64(delivered))
		rt.filteredRecs.Add(int64(filtered))
		rt.boundaryBytes.Add(dBytes)
		for i, s := range rt.shards {
			skip[i] = len(rt.deliv[i]) == 0 && len(r.subDelta[i]) == 0 && !s.eng.HasCarriedRoundEvents()
		}
		if err := rt.runStage(prof, durs, func(i int, s *shardState) error {
			if skip[i] {
				outs[i] = nil
				return nil
			}
			recs, err := s.eng.RoundLayer(l, rt.deliv[i])
			outs[i] = recs
			return err
		}); err != nil {
			return fmt.Errorf("layer %d: %w", l, err)
		}
		for i, s := range rt.shards {
			if !skip[i] {
				rt.ghostRows.Add(int64(s.eng.LastStageStats().GhostRows))
			}
		}
		if prof != nil {
			rt.addStage(prof, "layer"+strconv.Itoa(l), durs, skip, delivered, dBytes, bcast)
			prof.Records += delivered
			prof.Bytes += dBytes
		}

		t0 = time.Now()
		delivered, filtered, dBytes = rt.deliver(outs)
		bcast = time.Since(t0)
	}
	return rt.finishRound(prof, durs, bcast)
}
