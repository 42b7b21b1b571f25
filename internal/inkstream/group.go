package inkstream

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// group collects every event heading to one target node in one layer
// (Sec. II-B1). Monotonic layers keep the raw Del/Add payload lists (the
// reset-condition check needs them reduced, the isolated-target and
// ungrouped paths do not); accumulative layers are reduced on the fly into
// a running sum, a row of the owning shard's slab.
type group struct {
	target graph.NodeID
	// Monotonic payloads.
	dels, adds []tensor.Vector
	// Accumulative running sum and the number of OpUpdate events folded
	// into it; sum is nil when there were none. Both are set when the
	// shard's routing is done (grouper.close), not while the slab grows.
	sum  tensor.Vector
	nUpd int
	// User events routed to hooks.
	user []UserEvent
}

// reset clears a recycled group for a new target, keeping slice capacity.
func (g *group) reset(target graph.NodeID) {
	g.target = target
	g.dels = g.dels[:0]
	g.adds = g.adds[:0]
	g.sum = nil
	g.nUpd = 0
	g.user = g.user[:0]
}

// hasNative reports whether any native (non-user) event targeted the node.
func (g *group) hasNative() bool {
	return len(g.dels) > 0 || len(g.adds) > 0 || g.sum != nil
}

// byTarget orders groups by target ID; targets are unique within an epoch,
// so the order is total.
func byTarget(a, b *group) int { return cmp.Compare(a.target, b.target) }

// gslot is the grouper's per-node entry. stamp says whether the node has a
// group this epoch; idx is that group's index in its shard, row the index of
// its running sum in the shard's slab (-1 until its first OpUpdate event)
// and nUpd the OpUpdate events folded so far. One 16-byte entry keeps a
// fold's bookkeeping on one cache line: an arc into a target already seen
// is a stamp check plus one row add.
type gslot struct {
	stamp uint32
	idx   int32
	row   int32
	nUpd  int32
}

// gshard is one shard of the grouping table: a private freelist of group
// structs, the count of entries live this epoch, and the slab holding the
// running sums of its accumulative targets, dim floats per row in
// first-touch order. Each shard owns a contiguous block of target IDs, and
// the worker routing a shard is the only goroutine that ever touches its
// freelist, its slab (or the slots of its targets) — no cross-shard writes,
// no locks. A sequential epoch is the one-shard case.
type gshard struct {
	groups []*group // freelist; groups[:used] are live this epoch
	used   int
	slab   []float32 // capacity retained across epochs
}

// grouper is the table behind the grouping pass (Engine.groupLayer): it
// buckets a layer's events by target node and reduces per-target where
// possible. It is an engine-owned epoch-stamped table: the per-node slots
// are reused across layers and Apply calls without clearing (the stamp
// distinguishes epochs), and group structs — including their payload-slice
// capacity — and sum slabs are recycled per shard, so steady-state grouping
// does not allocate and involves no map operations.
type grouper struct {
	slot  []gslot
	epoch uint32

	// shards hold the per-target groups. Targets map to shards by ID block:
	// target>>shift is the owning shard, a partition chosen per epoch so the
	// shard order IS the target order (concatenating per-shard sorted groups
	// yields the globally sorted order the engine's determinism relies on).
	shards  []gshard
	nShards int  // shards active this epoch (1 = sequential routing)
	shift   uint // target >> shift == owning shard this epoch
	dim     int
	out     []*group // concatenated sorted groups, reused across epochs
}

func newGrouper(n int) *grouper {
	return &grouper{
		slot:   make([]gslot, n),
		shards: make([]gshard, 1),
	}
}

// begin opens a new epoch routed across S shards for a layer whose messages
// have the given dimension. The shard of a target is target>>shift with
// shift chosen so the shard index stays below S: a power-of-two block
// partition of the ID space (one block holding every target when S is 1).
// Blocks are monotonic in target ID, which is what lets finish produce the
// global sorted order by concatenation. The price is imbalance: a block's
// load is the events its targets receive, not its ID count, and nothing
// evens it out — ParallelForGrain hands each task a fixed run of contiguous
// shards (see Engine.shardCount).
func (gr *grouper) begin(dim, S int) {
	gr.epoch++
	gr.dim = dim
	for len(gr.shards) < S {
		gr.shards = append(gr.shards, gshard{})
	}
	for s := range gr.shards {
		gr.shards[s].used = 0
		gr.shards[s].slab = gr.shards[s].slab[:0]
	}
	gr.nShards = S
	shift := uint(0)
	for (len(gr.slot)-1)>>shift >= S {
		shift++
	}
	gr.shift = shift
}

// ensure grows the per-node table after AddNode.
func (gr *grouper) ensure(n int) {
	for len(gr.slot) < n {
		gr.slot = append(gr.slot, gslot{})
	}
}

// slotIn returns target's slot, opening its group in shard sh from the
// shard's freelist on first sight this epoch. It must only be called by the
// worker owning sh (the slots of sh's targets are written by that worker
// alone).
func (gr *grouper) slotIn(sh *gshard, target graph.NodeID) *gslot {
	s := &gr.slot[target]
	if s.stamp != gr.epoch {
		gr.open(sh, s, target)
	}
	return s
}

// open starts target's group this epoch: slot s gets the epoch and the index
// of a group recycled from (or appended to) sh's freelist. It is slotIn's
// cold half, kept apart so slotIn inlines into the per-arc fold.
func (gr *grouper) open(sh *gshard, s *gslot, target graph.NodeID) {
	*s = gslot{stamp: gr.epoch, idx: int32(sh.used), row: -1}
	var g *group
	if sh.used < len(sh.groups) {
		g = sh.groups[sh.used]
	} else {
		g = &group{}
		sh.groups = append(sh.groups, g)
	}
	sh.used++
	g.reset(target)
}

// getIn returns target's group in shard sh, creating it on first sight this
// epoch (see slotIn).
func (gr *grouper) getIn(sh *gshard, target graph.NodeID) *group {
	return sh.groups[gr.slotIn(sh, target).idx]
}

// addSum folds one accumulative payload into target's running sum — the
// paper's reduction of same-operation events — so the group holds one
// vector regardless of fan-in. The first fold appends a zeroed row to the
// shard's slab; the slab may be reallocated by a later first fold, which is
// why rows are addressed by index until close.
func (gr *grouper) addSum(sh *gshard, target graph.NodeID, p tensor.Vector) {
	s := gr.slotIn(sh, target)
	dim := gr.dim
	if s.row < 0 {
		n := len(sh.slab)
		sh.slab = slices.Grow(sh.slab, dim)[:n+dim]
		clear(sh.slab[n:])
		s.row = int32(n / dim)
	}
	off := int(s.row) * dim
	row := sh.slab[off : off+dim]
	tensor.Add(row, row, p)
	s.nUpd++
}

// close ends the routing of shard sh: it sorts the shard's groups by target
// and hands each accumulative group its slab row and fold count. The slab
// no longer grows this epoch, so the rows stay valid until the next begin.
func (gr *grouper) close(sh *gshard) {
	groups := sh.groups[:sh.used]
	slices.SortFunc(groups, byTarget)
	if len(sh.slab) == 0 {
		return
	}
	dim := gr.dim
	for _, g := range groups {
		if s := &gr.slot[g.target]; s.row >= 0 {
			off := int(s.row) * dim
			g.sum, g.nUpd = sh.slab[off:off+dim:off+dim], int(s.nUpd)
		}
	}
}

// finish returns the epoch's per-target groups sorted by target ID, applying
// the user-hook reduction. Every shard is already sorted (routeShards) and
// shard blocks are monotonic in target ID, so concatenation is the global
// order. Sorting makes the whole engine deterministic for a fixed worker
// count: groups are processed in chunks of this order and what they emit is
// merged in the same order. The reduction runs on the calling goroutine: the
// UserHooks contract only promises concurrency-safety for distinct-target
// Apply calls.
func (gr *grouper) finish(hooks UserHooks) []*group {
	out := gr.out[:0]
	for s := range gr.shards[:gr.nShards] {
		sh := &gr.shards[s]
		out = append(out, sh.groups[:sh.used]...)
	}
	for _, g := range out {
		if len(g.user) > 0 {
			g.user = hooks.Reduce(g.target, g.user)
		}
	}
	gr.out = out
	return out
}

// routedRec is one message change staged for a layer's routing pass: the
// source, the payloads its out-neighbors receive (monotonic: the old message
// to cancel and the new one to merge; accumulative: del is nil and add is
// new − old, computed once per source on the arena), and the arcs the source
// gained in this batch (Engine.insertedFrom), which are not routed.
type routedRec struct {
	node     graph.NodeID
	del, add tensor.Vector
	inserted [][2]graph.NodeID
}

// stageRecords turns layer l's message-change records into e.routeR and
// returns the number of native events they stand for: one per routed arc on
// an accumulative layer, a Del/Add pair on a monotonic one. An arc inserted
// in this batch is not routed — its changed-edge event already carries the
// new message, the duplicate-event rule of Sec. II-B2 — so a source routes
// outdeg − (its arcs inserted this batch) events; every inserted arc is in
// the post-batch graph exactly once (Delta.Validate), which keeps the count
// exact without walking a neighborhood.
func (e *Engine) stageRecords(l int, recs []MessageChange) (events int) {
	mono := e.model.Layers[l].Agg().Monotonic()
	e.routeR = e.routeR[:0]
	for _, r := range recs {
		rr := routedRec{node: r.Node, del: r.Old, add: r.New, inserted: e.insertedFrom(r.Node)}
		arcs := e.g.OutDegree(r.Node) - len(rr.inserted)
		if arcs == 0 {
			continue
		}
		if mono {
			arcs *= 2
		} else {
			// The diff is bitwise identical on every shard engine (same
			// Old/New bits, same elementwise subtraction), so accumulative
			// sums see the payloads a single engine would.
			rr.del, rr.add = nil, e.arena.alloc(len(r.New))
			tensor.Sub(rr.add, r.New, r.Old)
		}
		events += arcs
		e.routeR = append(e.routeR, rr)
	}
	return events
}

// insertedFrom returns the run of this batch's inserted arcs whose source is
// u, sorted by target.
func (e *Engine) insertedFrom(u graph.NodeID) [][2]graph.NodeID {
	lo, _ := slices.BinarySearchFunc(e.insArcs, u, func(a [2]graph.NodeID, u graph.NodeID) int {
		return cmp.Compare(a[0], u)
	})
	hi := lo
	for hi < len(e.insArcs) && e.insArcs[hi][0] == u {
		hi++
	}
	return e.insArcs[lo:hi]
}

// arcTarget orders an arc against a target ID by the arc's target.
func arcTarget(a [2]graph.NodeID, v graph.NodeID) int { return cmp.Compare(a[1], v) }

// groupLayer routes one layer's input into per-target groups: the
// changed-edge events, then the staged message changes of the previous layer
// (each folded into the groups of its source's out-neighbors, with no Event
// built), then the carried user events. Small layers route on the calling
// goroutine, large ones across the worker pool, each pool task owning a
// contiguous run of target-block shards; both routes yield identical groups
// in identical order (DESIGN.md §6.3), so the choice is invisible to
// everything downstream. Groups come back sorted by target, with the number
// of native events the records stood for.
func (e *Engine) groupLayer(l int, edge []Event, recs []MessageChange, user []UserEvent) ([]*group, int) {
	dim := e.model.Layers[l].MsgDim()
	routed := e.stageRecords(l, recs)
	e.c.FetchVec(routed * dim)
	n := len(edge) + routed + len(user)
	S := e.shardCount(n)
	e.gr.begin(dim, S)
	if S == 1 {
		e.routeShards(0, 1, edge, user)
	} else {
		// Per-index grain: one shard's routing cost scales with its share of
		// the events; ~8 element-units per event keeps the MinChunkWork floor
		// from serialising epochs that just cleared the sharding threshold.
		tensor.ParallelForGrain(S, 8*(n/S+1), func(lo, hi int) { e.routeShards(lo, hi, edge, user) })
	}
	return e.gr.finish(e.hooks), routed
}

// routeShards fills the groups of shards [lo, hi) in one scan of the layer's
// input, taking the targets those shards own and leaving the rest to the
// other tasks. Per target the arrival order is therefore the same whatever
// the shard count: changed-edge events in ΔG order, then message changes in
// record order. It closes each shard: groups sorted by target, running sums
// in place.
func (e *Engine) routeShards(lo, hi int, edge []Event, user []UserEvent) {
	gr := e.gr
	shift, base, span := gr.shift, uint32(lo), uint32(hi-lo)
	for _, ev := range edge {
		s := uint32(ev.Target)>>shift - base
		if s >= span {
			continue
		}
		sh := &gr.shards[lo+int(s)]
		switch ev.Op {
		case OpAdd:
			g := gr.getIn(sh, ev.Target)
			g.adds = append(g.adds, ev.Payload)
		case OpDel:
			g := gr.getIn(sh, ev.Target)
			g.dels = append(g.dels, ev.Payload)
		case OpUpdate:
			gr.addSum(sh, ev.Target, ev.Payload)
		}
	}
	for i := range e.routeR {
		r := &e.routeR[i]
		for _, v := range e.g.OutNeighbors(r.node) {
			s := uint32(v)>>shift - base
			if s >= span {
				continue
			}
			if len(r.inserted) > 0 {
				if _, dup := slices.BinarySearchFunc(r.inserted, v, arcTarget); dup {
					continue
				}
			}
			sh := &gr.shards[lo+int(s)]
			if r.del == nil {
				gr.addSum(sh, v, e.payload(r.add))
				continue
			}
			g := gr.getIn(sh, v)
			g.dels = append(g.dels, e.payload(r.del))
			g.adds = append(g.adds, e.payload(r.add))
		}
	}
	for _, ev := range user {
		if s := uint32(ev.Target)>>shift - base; s < span {
			g := gr.getIn(&gr.shards[lo+int(s)], ev.Target)
			g.user = append(g.user, ev)
		}
	}
	for s := lo; s < hi; s++ {
		gr.close(&gr.shards[s])
	}
}
