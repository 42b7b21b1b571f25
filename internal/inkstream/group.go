package inkstream

import (
	"cmp"
	mathbits "math/bits"
	"slices"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// group collects every event heading to one target node in one layer
// (Sec. II-B1), reduced as the events arrive: an accumulative layer folds
// them into a running sum, a monotonic one into the reduced deletion and
// addition m⁻_A and m_A. The reduced rows live in the owning shard's slab.
type group struct {
	target graph.NodeID
	// n counts the native events folded: OpUpdate events on an accumulative
	// layer, Del and Add payloads on a monotonic one.
	n int
	// sum is the accumulative running sum; mDel and mAdd are the monotonic
	// m⁻_A and m_A. Each is nil when no event of its kind arrived; all three
	// are set when the shard's routing is done (grouper.close), not while the
	// slab grows.
	sum, mDel, mAdd tensor.Vector
	// dels and adds are the raw monotonic payloads in arrival order, kept
	// only under the DisableGrouping ablation, which applies each on its own
	// instead of reducing them.
	dels, adds []tensor.Vector
	// User events routed to hooks.
	user []UserEvent
}

// reset clears a recycled group for a new target, keeping slice capacity.
func (g *group) reset(target graph.NodeID) {
	g.target = target
	g.n = 0
	g.sum, g.mDel, g.mAdd = nil, nil, nil
	g.dels = g.dels[:0]
	g.adds = g.adds[:0]
	g.user = g.user[:0]
}

// hasNative reports whether any native (non-user) event targeted the node.
func (g *group) hasNative() bool { return g.n > 0 }

// gslot is the grouper's per-node entry, live while the node's bit is set in
// the grouper's bitmap: idx is the node's group index in its shard, row the
// index of its folded payloads in the shard's slab (-1 until its first
// native payload), n the native payloads folded so far and kinds which
// halves of a monotonic row pair hold a payload. One 16-byte entry keeps a
// fold's bookkeeping on one cache line.
type gslot struct {
	idx   int32
	row   int32
	n     int32
	kinds uint32
}

// The halves of a monotonic [del | add] row pair (gslot.kinds).
const (
	kindDel = 1 << iota
	kindAdd
)

// gshard is one shard of the grouping table: a private freelist of group
// structs, the count of entries live this epoch, the slab holding the folded
// rows of its targets in first-touch order — dim floats per accumulative
// target, a [del | add] pair of 2·dim per monotonic one — and the slab rows
// one record folds into (Engine.routeShards). Each shard owns a contiguous
// block of target IDs, and the worker routing a shard is the only goroutine
// that ever touches its freelist, its slab, the slots of its targets or the
// bitmap words of its block — no cross-shard writes, no locks. A sequential
// epoch is the one-shard case.
type gshard struct {
	groups []*group // freelist; groups[:used] are live this epoch
	used   int
	slab   []float32 // capacity retained across epochs
	rows   []int32
}

// grouper is the table behind the grouping pass (Engine.groupLayer): it
// buckets a layer's events by target node and reduces them per target as
// they arrive. It is engine-owned and reused across layers and Apply calls:
// a bit per node says whether the node has a group this epoch, and close
// clears every bit it set, so the per-node slots are never cleared; group
// structs — including their slice capacity — and slabs are recycled per
// shard, so steady-state grouping does not allocate and involves no map
// operations and no sort.
type grouper struct {
	slot []gslot
	bits []uint64

	// shards hold the per-target groups. Targets map to shards by ID block:
	// target>>shift is the owning shard, a partition chosen per epoch so the
	// shard order IS the target order (concatenating per-shard sorted groups
	// yields the globally sorted order the engine's determinism relies on).
	shards  []gshard
	nShards int  // shards active this epoch (1 = sequential routing)
	shift   uint // target >> shift == owning shard this epoch; at least 6
	dim     int
	// merge is a monotonic layer's merge kernel, nil on an accumulative
	// layer; ungrouped keeps monotonic payloads in lists (DisableGrouping).
	merge     func(dst, a, b tensor.Vector)
	ungrouped bool
	out       []*group // concatenated sorted groups, reused across epochs
}

func newGrouper(n int) *grouper {
	gr := &grouper{shards: make([]gshard, 1)}
	gr.ensure(n)
	return gr
}

// mergeKernel returns the kernel Aggregator.Merge runs for a monotonic kind
// (Merge(dst, m) is kernel(dst, dst, m)), nil for an accumulative one.
func mergeKernel(kind gnn.AggKind) func(dst, a, b tensor.Vector) {
	switch kind {
	case gnn.AggMax:
		return tensor.EltMax
	case gnn.AggMin:
		return tensor.EltMin
	}
	return nil
}

// begin opens a new epoch routed across S shards for a layer whose messages
// have the given dimension and whose monotonic merge is merge (nil when
// accumulative); ungrouped keeps monotonic payloads in lists. The shard of a
// target is target>>shift with shift chosen so the shard index stays below
// S: a power-of-two block partition of the ID space (one block holding
// every target when S is 1). shift is at least 6,
// so a block is whole words of the bitmap and no two shards ever write one
// word; on a graph of fewer than 64·S nodes some shards then own no ID.
// Blocks are monotonic in target ID, which is what lets finish produce the
// global sorted order by concatenation. The price is imbalance: a block's
// load is the events its targets receive, not its ID count, and nothing
// evens it out — ParallelForGrain hands each task a fixed run of contiguous
// shards (see Engine.shardCount).
func (gr *grouper) begin(dim, S int, merge func(dst, a, b tensor.Vector), ungrouped bool) {
	gr.dim, gr.merge, gr.ungrouped = dim, merge, ungrouped
	for len(gr.shards) < S {
		gr.shards = append(gr.shards, gshard{})
	}
	for s := range gr.shards {
		gr.shards[s].used = 0
		gr.shards[s].slab = gr.shards[s].slab[:0]
	}
	gr.nShards = S
	shift := uint(6)
	for (len(gr.slot)-1)>>shift >= S {
		shift++
	}
	gr.shift = shift
}

// ensure grows the per-node table and bitmap after AddNode.
func (gr *grouper) ensure(n int) {
	for len(gr.slot) < n {
		gr.slot = append(gr.slot, gslot{})
	}
	for len(gr.bits) < (n+63)>>6 {
		gr.bits = append(gr.bits, 0)
	}
}

// has reports whether target's bit is set.
func (gr *grouper) has(target graph.NodeID) bool {
	return gr.bits[target>>6]&(1<<(uint32(target)&63)) != 0
}

// slotIn returns target's slot, opening its group in shard sh from the
// shard's freelist on first sight this epoch. It must only be called by the
// worker owning sh (the slots and bitmap words of sh's targets are written
// by that worker alone).
func (gr *grouper) slotIn(sh *gshard, target graph.NodeID) *gslot {
	if gr.has(target) {
		return &gr.slot[target]
	}
	return gr.open(sh, target)
}

// open starts target's group this epoch: its bit is set and its slot gets
// the index of a group recycled from (or appended to) sh's freelist.
func (gr *grouper) open(sh *gshard, target graph.NodeID) *gslot {
	gr.bits[target>>6] |= 1 << (uint32(target) & 63)
	s := &gr.slot[target]
	*s = gslot{idx: int32(sh.used), row: -1}
	var g *group
	if sh.used < len(sh.groups) {
		g = sh.groups[sh.used]
	} else {
		g = &group{}
		sh.groups = append(sh.groups, g)
	}
	sh.used++
	g.reset(target)
	return s
}

// getIn returns target's group in shard sh, creating it on first sight this
// epoch (see slotIn).
func (gr *grouper) getIn(sh *gshard, target graph.NodeID) *group {
	return sh.groups[gr.slotIn(sh, target).idx]
}

// newRow appends a row of the given width to sh's slab and returns its
// index. The slab may be reallocated, which is why rows are addressed by
// index until close.
func (sh *gshard) newRow(width int) int32 {
	n := len(sh.slab)
	sh.slab = slices.Grow(sh.slab, width)[:n+width]
	return int32(n / width)
}

// sumRow counts one more accumulative fold into target's running sum and
// returns the sum's slab row, or returns -1 when the target has no sum yet,
// for newSum to start it. The split keeps the common case inlined in the
// per-arc loop. The caller adds the payload: addSum for one event, AddRows
// for a record's arcs.
func (gr *grouper) sumRow(target graph.NodeID) int32 {
	if gr.has(target) {
		if s := &gr.slot[target]; s.row >= 0 {
			s.n++
			return s.row
		}
	}
	return -1
}

// newSum starts target's running sum with its first fold: it opens the
// target's group in sh if need be and appends a zeroed row to the slab.
func (gr *grouper) newSum(sh *gshard, target graph.NodeID) int32 {
	s := gr.slotIn(sh, target)
	s.row = sh.newRow(gr.dim)
	off := int(s.row) * gr.dim
	clear(sh.slab[off : off+gr.dim])
	s.n++
	return s.row
}

// addSum folds one accumulative payload into target's running sum — the
// paper's reduction of same-operation events — so the group holds one
// vector regardless of fan-in.
func (gr *grouper) addSum(sh *gshard, target graph.NodeID, p tensor.Vector) {
	r := gr.sumRow(target)
	if r < 0 {
		r = gr.newSum(sh, target)
	}
	off := int(r) * gr.dim
	row := sh.slab[off : off+gr.dim]
	tensor.Add(row, row, p)
}

// addPair routes a monotonic Del and/or Add payload (nil for none) to
// target: folded into its [del | add] row pair, or appended to its lists
// under the grouping ablation. In the pair, the first payload of each kind
// is copied — what reducing a one-payload list gives — and every later one
// is merged onto it in arrival order, so m⁻_A and m_A are the reductions of
// the lists the ablation keeps, bit for bit.
func (gr *grouper) addPair(sh *gshard, target graph.NodeID, del, add tensor.Vector) {
	s := gr.slotIn(sh, target)
	if gr.ungrouped {
		g := sh.groups[s.idx]
		if del != nil {
			g.dels = append(g.dels, del)
			s.n++
		}
		if add != nil {
			g.adds = append(g.adds, add)
			s.n++
		}
		return
	}
	dim := gr.dim
	if s.row < 0 {
		s.row = sh.newRow(2 * dim)
	}
	off := int(s.row) * 2 * dim
	if del != nil {
		gr.fold(s, kindDel, sh.slab[off:off+dim], del)
	}
	if add != nil {
		gr.fold(s, kindAdd, sh.slab[off+dim:off+2*dim], add)
	}
}

// fold puts payload p into half, the kind half of s's row pair.
func (gr *grouper) fold(s *gslot, kind uint32, half, p tensor.Vector) {
	if s.kinds&kind == 0 {
		copy(half, p)
		s.kinds |= kind
	} else {
		gr.merge(half, half, p)
	}
	s.n++
}

// close ends the routing of shard si: it walks the bitmap words of the
// shard's ID block in order, clearing each, up to the word holding its last
// target, so the targets come out sorted without a sort. Each target's
// group is swapped into the next position of groups[:used] and handed its
// fold count and its rows in the slab, which no longer grows this epoch, so
// the rows stay valid until the next begin.
func (gr *grouper) close(si int) {
	sh := &gr.shards[si]
	per := 1 << (gr.shift - 6) // bitmap words per block
	lo := min(si*per, len(gr.bits))
	hi := min(lo+per, len(gr.bits))
	k := 0
	for w := lo; w < hi && k < sh.used; w++ {
		for word := gr.bits[w]; word != 0; word &= word - 1 {
			s := &gr.slot[w<<6|mathbits.TrailingZeros64(word)]
			// Positions before k hold their final groups, so the group at k
			// belongs to a later target, whose slot follows it to s.idx.
			g := sh.groups[s.idx]
			if i := int(s.idx); i != k {
				moved := sh.groups[k]
				sh.groups[k], sh.groups[i] = g, moved
				gr.slot[moved.target].idx = int32(i)
			}
			k++
			gr.fill(g, s, sh.slab)
		}
		gr.bits[w] = 0
	}
}

// fill hands g what its slot s folded: the count and the slab rows.
func (gr *grouper) fill(g *group, s *gslot, slab []float32) {
	g.n = int(s.n)
	if s.row < 0 {
		return
	}
	dim := gr.dim
	if gr.merge == nil {
		off := int(s.row) * dim
		g.sum = slab[off : off+dim : off+dim]
		return
	}
	off := int(s.row) * 2 * dim
	if s.kinds&kindDel != 0 {
		g.mDel = slab[off : off+dim : off+dim]
	}
	if s.kinds&kindAdd != 0 {
		g.mAdd = slab[off+dim : off+2*dim : off+2*dim]
	}
}

// finish returns the epoch's per-target groups sorted by target ID, applying
// the user-hook reduction. Every shard is already sorted (close) and shard
// blocks are monotonic in target ID, so concatenation is the global order.
// Sorting makes the whole engine deterministic for a fixed worker count:
// groups are processed in chunks of this order and what they emit is merged
// in the same order. The reduction runs on the calling goroutine: the
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

// insertedTo reports whether run, one source's inserted arcs sorted by
// target, holds the arc to v. It is a binary search written out, where
// slices.BinarySearchFunc would call a comparator per step: it runs once
// per routed arc of every source that gained arcs in the batch.
func insertedTo(run [][2]graph.NodeID, v graph.NodeID) bool {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if run[m][1] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(run) && run[lo][1] == v
}

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
	e.gr.begin(dim, S, mergeKernel(e.model.Layers[l].Agg().Kind()), e.opts.DisableGrouping)
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
// other tasks, and folds every payload into its target's row as it routes
// it. Per target the arrival order is therefore the same whatever the shard
// count: changed-edge events in ΔG order, then message changes in record
// order. An accumulative record collects, per owned shard, the slab rows of
// its out-neighbours there and folds its delta into all of them in one
// AddRows call. It closes each shard: groups sorted by target, reduced rows
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
			gr.addPair(sh, ev.Target, nil, ev.Payload)
		case OpDel:
			gr.addPair(sh, ev.Target, ev.Payload, nil)
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
			if len(r.inserted) > 0 && insertedTo(r.inserted, v) {
				continue
			}
			sh := &gr.shards[lo+int(s)]
			if r.del == nil {
				row := gr.sumRow(v)
				if row < 0 {
					row = gr.newSum(sh, v)
				}
				sh.rows = append(sh.rows, row)
			} else {
				gr.addPair(sh, v, e.payload(r.del), e.payload(r.add))
			}
		}
		if r.del == nil {
			for s := lo; s < hi; s++ {
				e.foldRows(&gr.shards[s], r.add)
			}
		}
	}
	for _, ev := range user {
		if s := uint32(ev.Target)>>shift - base; s < span {
			g := gr.getIn(&gr.shards[lo+int(s)], ev.Target)
			g.user = append(g.user, ev)
		}
	}
	for s := lo; s < hi; s++ {
		gr.close(s)
	}
}

// foldRows adds an accumulative record's delta p to the slab rows it
// collected in sh, then empties the list: one AddRows call, or, under the
// CopyPayloads ablation, one per row, each with its own copy of p.
func (e *Engine) foldRows(sh *gshard, p tensor.Vector) {
	if len(sh.rows) == 0 {
		return
	}
	if e.opts.CopyPayloads {
		for k := range sh.rows {
			tensor.AddRows(sh.slab, sh.rows[k:k+1], p.Clone())
		}
	} else {
		tensor.AddRows(sh.slab, sh.rows, p)
	}
	sh.rows = sh.rows[:0]
}
