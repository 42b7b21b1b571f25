package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
)

// This file is the cross-shard seam: the round protocol, with
// subscription-filtered record delivery and the boundary-first
// compute/exchange overlap (DESIGN.md §7.4).
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

// initSubscriptions builds the subscription tables and boundary masks from
// the bootstrap graph (the replica holds its directed arcs) and installs
// each shard's boundary mask. Called once at construction; replayed rounds
// maintain the tables like live ones.
func (rt *Router) initSubscriptions() error {
	n := len(rt.shards)
	rt.subs = make([]map[graph.NodeID]int, n)
	for s := range rt.subs {
		rt.subs[s] = make(map[graph.NodeID]int)
	}
	rt.remoteSubs = make([]int, rt.part.NumNodes())
	g := rt.replica
	for u := 0; u < g.NumNodes(); u++ {
		src := rt.part.Owner(graph.NodeID(u))
		for _, v := range g.OutNeighbors(graph.NodeID(u)) {
			if dst := rt.part.Owner(v); dst != src {
				if rt.subs[dst][graph.NodeID(u)]++; rt.subs[dst][graph.NodeID(u)] == 1 {
					rt.remoteSubs[u]++
				}
			}
		}
	}
	rt.boundary = make([][]bool, n)
	for s := range rt.boundary {
		rt.boundary[s] = make([]bool, rt.part.NumNodes())
	}
	for u, subs := range rt.remoteSubs {
		if subs > 0 {
			rt.boundary[rt.part.Owner(graph.NodeID(u))][u] = true
		}
	}
	for s, st := range rt.shards {
		if err := st.eng.SetPartitionBoundary(rt.boundary[s]); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	rt.delivA = make([][]inkstream.MessageChange, n)
	rt.delivB = make([][]inkstream.MessageChange, n)
	rt.bndOut = make([][]inkstream.MessageChange, n)
	rt.intrOut = make([][]inkstream.MessageChange, n)
	return nil
}

// prepareRoundRouting folds one round's arc changes into the subscription
// tables and boundary masks, then hydrates every new subscription (refcount
// 0 → 1 on a remote source) by copying the owner's current message rows into
// the subscriber's ghost rows — all before the round opens, on the apply
// goroutine, while every engine is idle.
func (rt *Router) prepareRoundRouting(r *round) error {
	type hydration struct {
		shard int
		node  graph.NodeID
	}
	var fresh []hydration
	for s := range r.subDelta {
		for _, ch := range r.subDelta[s] {
			src := rt.part.Owner(ch.U) // destination owner is s by routing
			if src == s {
				continue
			}
			if ch.Insert {
				if rt.subs[s][ch.U]++; rt.subs[s][ch.U] == 1 {
					if rt.remoteSubs[ch.U]++; rt.remoteSubs[ch.U] == 1 {
						rt.boundary[src][ch.U] = true
					}
					fresh = append(fresh, hydration{s, ch.U})
				}
			} else {
				if rt.subs[s][ch.U]--; rt.subs[s][ch.U] == 0 {
					delete(rt.subs[s], ch.U)
					if rt.remoteSubs[ch.U]--; rt.remoteSubs[ch.U] == 0 {
						rt.boundary[src][ch.U] = false
					}
				}
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

// bucketRecords distributes one shard's records into the per-destination
// delivery lists: the producing shard always receives its own records (it
// regenerates local fan-out from them), other shards only when subscribed.
// Returns the remote deliveries, suppressed deliveries and delivered bytes
// for the round counters.
func (rt *Router) bucketRecords(src int, recs []inkstream.MessageChange, deliv [][]inkstream.MessageChange) (delivered, filtered int, bytes int64) {
	n := len(rt.shards)
	for _, rec := range recs {
		deliv[src] = append(deliv[src], rec)
		recBytes := int64(4 * (len(rec.Old) + len(rec.New)))
		for s := 0; s < n; s++ {
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
	return delivered, filtered, bytes
}

// executeRound runs one BSP round: BeginRound on every shard, then the
// layers in lockstep, then FinishRound and a snapshot publish on every
// shard. Per layer, every participating shard runs RoundLayerBoundary
// (producing the records other shards wait for) and then RoundLayerInterior
// back to back with no inter-shard barrier between the phases; the apply
// goroutine buckets each shard's boundary records into the next layer's
// delivery lists as they arrive, overlapping the exchange with the interior
// compute. Shards with an empty sub-batch, an empty delivery list and no
// carried hook events skip the layer call entirely — the idle half of a
// partitioned deployment stops paying the lockstep tax. A 1-shard deployment
// runs the same code with nothing subscribed: no boundary targets, no remote
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

	// Layer-0 delivery lists from the BeginRound records.
	deliv, next := rt.delivA, rt.delivB
	for s := range deliv {
		deliv[s], next[s] = deliv[s][:0], next[s][:0]
	}
	var bcast time.Duration
	t0 := time.Now()
	delivered, filtered := 0, 0
	var dBytes int64
	for i := range outs {
		d, f, b := rt.bucketRecords(i, outs[i], deliv)
		delivered, filtered, dBytes = delivered+d, filtered+f, dBytes+b
	}
	for s := range deliv {
		sortRecords(deliv[s])
	}
	bcast = time.Since(t0)

	skip := make([]bool, n)
	for l := 0; l < rt.model.NumLayers(); l++ {
		rt.boundaryRecs.Add(int64(delivered))
		rt.filteredRecs.Add(int64(filtered))
		rt.boundaryBytes.Add(dBytes)
		stageRecs, stageBytes, layerBcast := delivered, dBytes, bcast

		participants := 0
		for i, s := range rt.shards {
			skip[i] = len(deliv[i]) == 0 && len(r.subDelta[i]) == 0 && !s.eng.HasCarriedRoundEvents()
			if !skip[i] {
				participants++
			}
		}
		for s := range next {
			next[s] = next[s][:0]
		}

		// Launch the participants: boundary phase, publish its records,
		// then interior — no cross-shard barrier between the phases.
		bndReady := make(chan int, participants)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, s := range rt.shards {
			if skip[i] {
				rt.bndOut[i], rt.intrOut[i] = nil, nil
				if prof != nil {
					durs[i] = 0
				}
				continue
			}
			wg.Add(1)
			go func(i int, s *shardState, l int) {
				defer wg.Done()
				var t0 time.Time
				if prof != nil {
					t0 = time.Now()
				}
				bnd, err := s.eng.RoundLayerBoundary(l, deliv[i])
				rt.bndOut[i] = bnd
				if err != nil {
					errs[i] = err
					bndReady <- -1
					return
				}
				bndReady <- i
				intr, err := s.eng.RoundLayerInterior()
				rt.intrOut[i] = intr
				errs[i] = err
				if prof != nil {
					durs[i] = time.Since(t0)
				}
			}(i, s, l)
		}

		// Overlapped exchange: bucket each shard's boundary records into the
		// next layer's delivery lists as soon as that shard publishes them,
		// while the interiors are still computing.
		var mergeBusy time.Duration
		delivered, filtered, dBytes = 0, 0, 0
		for k := 0; k < participants; k++ {
			i := <-bndReady
			if i < 0 {
				continue
			}
			b0 := time.Now()
			d, f, b := rt.bucketRecords(i, rt.bndOut[i], next)
			delivered, filtered, dBytes = delivered+d, filtered+f, dBytes+b
			mergeBusy += time.Since(b0)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("layer %d: %w", l, err)
		}
		for i, s := range rt.shards {
			if skip[i] {
				continue
			}
			b0 := time.Now()
			d, f, b := rt.bucketRecords(i, rt.intrOut[i], next)
			delivered, filtered, dBytes = delivered+d, filtered+f, dBytes+b
			mergeBusy += time.Since(b0)
			rt.ghostRows.Add(int64(s.eng.LastStageStats().GhostRows))
		}
		for s := range next {
			sortRecords(next[s])
		}
		bcast = mergeBusy

		if prof != nil {
			rt.addStage(prof, "layer"+strconv.Itoa(l), durs, skip, stageRecs, stageBytes, layerBcast)
			prof.Records += stageRecs
			prof.Bytes += stageBytes
		}
		deliv, next = next, deliv
	}
	rt.delivA, rt.delivB = deliv, next

	return rt.finishRound(prof, durs, bcast)
}

// sortRecords node-sorts one delivery list. Each source node's record is
// produced by exactly one shard, so the order is total and deterministic.
func sortRecords(recs []inkstream.MessageChange) {
	slices.SortFunc(recs, func(a, b inkstream.MessageChange) int { return cmp.Compare(a.Node, b.Node) })
}
