package inkstream

import (
	"cmp"
	mathbits "math/bits"
	"slices"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// group collects every event heading to one target node in one layer
// (Sec. II-B1), reduced as the events arrive: an accumulative layer folds
// them into a running sum, a monotonic one into the reduced deletion and
// addition m⁻_A and m_A. A sum lives in the grouper's node-indexed slab, a
// monotonic pair in the owning shard's slab.
type group struct {
	target graph.NodeID
	// n counts the native events folded: Del and Add payloads on a monotonic
	// layer. On an accumulative one it is 1 for a target whose row got any
	// fold; routeDense charges the folds beyond one per target for the whole
	// layer, so the per-target count is never kept.
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
// the grouper's bitmap: idx is the node's group index in its shard, n the
// native payloads folded so far (group.n); on a monotonic layer row is the
// index of its [del | add] pair in the shard's slab (-1 until its first
// native payload) and kinds which halves of the pair hold a payload. One
// 16-byte entry keeps a fold's bookkeeping on one cache line.
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
// structs, the count of entries live this epoch and the slab holding the
// [del | add] row pairs of its monotonic targets, 2·dim floats each, in
// first-touch order. Each shard owns a contiguous block of target IDs, and
// the worker routing a shard is the only goroutine that ever touches its
// freelist, its slab, the slots of its targets or the bitmap words of its
// block — no cross-shard writes, no locks. A sequential epoch, and every
// accumulative one, is the one-shard case.
type gshard struct {
	groups []*group // freelist; groups[:used] are live this epoch
	used   int
	slab   []float32 // capacity retained across epochs
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

	// dense holds an accumulative layer's running sums, row v at v·dim. It
	// is all zero between epochs: begin clears the rows the previous epoch
	// handed out.
	dense []float32
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
//
// Every epoch first clears the dense rows the previous one handed out, if
// it was accumulative; an accumulative one then grows the dense slab to
// n·dim.
func (gr *grouper) begin(dim, S int, merge func(dst, a, b tensor.Vector), ungrouped bool) {
	if gr.merge == nil {
		for _, g := range gr.out {
			clear(g.sum)
		}
	}
	gr.out = gr.out[:0]
	if n := len(gr.slot) * dim; merge == nil && len(gr.dense) < n {
		gr.dense = append(gr.dense, make([]float32, n-len(gr.dense))...)
	}
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
	*s = gslot{idx: sh.next(target), row: -1}
	return s
}

// next takes the next group of sh's freelist, appending one if it is
// exhausted, resets it for target and returns its index.
func (sh *gshard) next(target graph.NodeID) int32 {
	if sh.used == len(sh.groups) {
		sh.groups = append(sh.groups, &group{})
	}
	sh.groups[sh.used].reset(target)
	sh.used++
	return int32(sh.used - 1)
}

// mark sets target's bit: its dense row got a fold this epoch. It is all
// the dense route does per arc besides the add.
func (gr *grouper) mark(target graph.NodeID) {
	gr.bits[target>>6] |= 1 << (uint32(target) & 63)
}

// foldRows adds x into the dense rows of targets, in order, and marks them.
func (gr *grouper) foldRows(targets []graph.NodeID, x tensor.Vector) {
	tensor.AddRows(gr.dense, targets, x)
	for _, v := range targets {
		gr.mark(v)
	}
}

// materialize opens, in target order, the group of every target the dense
// route marked, with n = 1, and returns how many it opened.
func (gr *grouper) materialize(sh *gshard) (targets int) {
	for w, word := range gr.bits {
		for ; word != 0; word &= word - 1 {
			v := graph.NodeID(w<<6 | mathbits.TrailingZeros64(word))
			gr.slot[v] = gslot{idx: sh.next(v), n: 1}
			targets++
		}
	}
	return targets
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

// fill hands g what its slot s folded: the count and the rows, its dense
// row on an accumulative layer, its slab pair on a monotonic one.
func (gr *grouper) fill(g *group, s *gslot, slab []float32) {
	g.n = int(s.n)
	dim := gr.dim
	if gr.merge == nil {
		if s.n > 0 {
			off := int(g.target) * dim
			g.sum = gr.dense[off : off+dim : off+dim]
		}
		return
	}
	if s.row < 0 {
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
// new − old, computed once per source on the arena), and cuts, the positions
// in the source's adjacency list of the arcs it gained in this batch, which
// are not routed (ascending; empty for most sources).
type routedRec struct {
	node     graph.NodeID
	del, add tensor.Vector
	cuts     []int32
}

// stageRecords turns layer l's message-change records into e.routeR and
// returns the number of native events they stand for: one per routed arc on
// an accumulative layer, a Del/Add pair on a monotonic one. An arc inserted
// in this batch is not routed — its changed-edge event already carries the
// new message, the duplicate-event rule of Sec. II-B2 — so a source routes
// outdeg − (its arcs inserted this batch) events; every inserted arc is in
// the post-batch graph exactly once (Delta.Validate), which keeps the count
// exact without walking a neighborhood. A source that gained arcs has their
// positions found here, once per layer (insertedAt), so the routes skip them
// by position. The cuts of all records share e.cuts: when an append moves it,
// the earlier records keep pointing into the old array, which nothing writes
// again this layer.
func (e *Engine) stageRecords(l int, recs []MessageChange) (events int) {
	mono := e.model.Layers[l].Agg().Monotonic()
	e.routeR = e.routeR[:0]
	e.cuts = e.cuts[:0]
	for _, r := range recs {
		run := e.insertedFrom(r.Node)
		arcs := e.g.OutDegree(r.Node) - len(run)
		if arcs == 0 {
			continue
		}
		rr := routedRec{node: r.Node, del: r.Old, add: r.New}
		if len(run) > 0 {
			start := len(e.cuts)
			e.cuts = insertedAt(e.cuts, e.g.OutNeighbors(r.Node), run)
			rr.cuts = e.cuts[start:]
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

// insertedAt appends to cuts the positions in nbrs, ascending, of the arcs
// of run — one source's inserted arcs sorted by target, each in nbrs exactly
// once. AddEdge appends, so they sit at the tail unless a removal later in
// the batch swapped one forward (RemoveEdge moves the last arc into the
// hole): the scan runs from the tail and stops at the last one it finds, so
// it costs about len(run) membership tests, not one per arc.
func insertedAt(cuts []int32, nbrs []graph.NodeID, run [][2]graph.NodeID) []int32 {
	start, left := len(cuts), len(run)
	for j := len(nbrs) - 1; left > 0; j-- {
		if _, ok := slices.BinarySearchFunc(run, nbrs[j], func(a [2]graph.NodeID, v graph.NodeID) int {
			return cmp.Compare(a[1], v)
		}); ok {
			cuts = append(cuts, int32(j))
			left--
		}
	}
	slices.Reverse(cuts[start:])
	return cuts
}

// groupLayer routes one layer's input into per-target groups: the
// changed-edge events, then the staged message changes of the previous layer
// (each folded into the groups of its source's out-neighbors, with no Event
// built), then the carried user events. An accumulative layer always routes
// on the calling goroutine into the dense slab (routeDense). A monotonic
// layer routes there too when small, across the worker pool when large,
// each pool task owning a contiguous run of target-block shards; both
// monotonic routes yield identical groups in identical order (DESIGN.md
// §6.3), so the choice is invisible to everything downstream. Groups come
// back sorted by target, with the number of native events the records stood
// for.
func (e *Engine) groupLayer(l int, edge []Event, recs []MessageChange, user []UserEvent) ([]*group, int) {
	agg := e.model.Layers[l].Agg()
	dim := e.model.Layers[l].MsgDim()
	routed := e.stageRecords(l, recs)
	e.c.FetchVec(routed * dim)
	if !agg.Monotonic() {
		e.gr.begin(dim, 1, nil, e.opts.DisableGrouping)
		e.routeDense(edge, routed, user)
		return e.gr.finish(e.hooks), routed
	}
	n := len(edge) + routed + len(user)
	S := e.shardCount(n)
	e.gr.begin(dim, S, mergeKernel(agg.Kind()), e.opts.DisableGrouping)
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

// routeDense routes an accumulative layer in one pass: each changed-edge
// event is added into its target's dense row, each record's delta into the
// rows of its out-neighbours by AddRows over its adjacency list — over the
// segments between its cuts, when its source gained arcs this batch, whose
// changed-edge events carry the new message already — and every fold sets
// its target's bit. Per target the fold order is the arrival order:
// changed-edge events in ΔG order, then records in record order, each in
// adjacency order. The marked targets' groups are then opened in target
// order, the user events routed and the one shard closed.
//
// Each opened group counts one native event (materialize). Of the layer's
// len(edge) + routed folds, those beyond one per target are charged here,
// once for the layer: folds − targets events and dim·(folds − targets)
// FLOPs, so the counters total one event and one dim-float add per fold,
// what a per-target fold count would have charged.
func (e *Engine) routeDense(edge []Event, routed int, user []UserEvent) {
	gr := e.gr
	dim := gr.dim
	for _, ev := range edge {
		off := int(ev.Target) * dim
		row := gr.dense[off : off+dim]
		tensor.Add(row, row, ev.Payload)
		gr.mark(ev.Target)
	}
	for i := range e.routeR {
		r := &e.routeR[i]
		nbrs := e.g.OutNeighbors(r.node)
		lo := 0
		for _, c := range r.cuts {
			gr.foldRows(nbrs[lo:c], r.add)
			lo = int(c) + 1
		}
		gr.foldRows(nbrs[lo:], r.add)
	}
	sh := &gr.shards[0]
	extra := len(edge) + routed - gr.materialize(sh)
	var t metrics.Tally
	t.AddEvents(extra)
	t.AddFLOPs(int64(dim * extra))
	t.Flush(e.c)
	for _, ev := range user {
		g := gr.getIn(sh, ev.Target)
		g.user = append(g.user, ev)
	}
	gr.close(0)
}

// routeShards fills the groups of shards [lo, hi) of a monotonic layer in
// one scan of the layer's input, taking the targets those shards own and
// leaving the rest to the other tasks, and folds every payload into its
// target's row pair as it routes it. Per target the arrival order is
// therefore the same whatever the shard count: changed-edge events in ΔG
// order, then message changes in record order. It closes each shard: groups
// sorted by target, reduced rows in place.
func (e *Engine) routeShards(lo, hi int, edge []Event, user []UserEvent) {
	gr := e.gr
	shift, base, span := gr.shift, uint32(lo), uint32(hi-lo)
	for _, ev := range edge {
		s := uint32(ev.Target)>>shift - base
		if s >= span {
			continue
		}
		sh := &gr.shards[lo+int(s)]
		if ev.Op == OpAdd {
			gr.addPair(sh, ev.Target, nil, ev.Payload)
		} else {
			gr.addPair(sh, ev.Target, ev.Payload, nil)
		}
	}
	for i := range e.routeR {
		r := &e.routeR[i]
		cuts := r.cuts
		for j, v := range e.g.OutNeighbors(r.node) {
			if len(cuts) > 0 && int(cuts[0]) == j {
				cuts = cuts[1:]
				continue
			}
			s := uint32(v)>>shift - base
			if s >= span {
				continue
			}
			gr.addPair(&gr.shards[lo+int(s)], v, r.del, r.add)
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
