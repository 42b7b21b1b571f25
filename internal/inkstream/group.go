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
// monotonic pair in its first-touch pair slab.
type group struct {
	target graph.NodeID
	// n is 1 for a target that received any native event and 0 for one
	// only user events reached. groupLayer charges the folds beyond one per
	// target for the whole layer, so the per-target count is never kept.
	n int
	// sum is the accumulative running sum; mDel and mAdd are the monotonic
	// m⁻_A and m_A. Each is nil when no event of its kind arrived; all three
	// are set when the layer's routing is done (grouper.materialize), not
	// while the slabs grow.
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

// gslot is the grouper's per-node entry. While a layer routes, a target
// whose bit is set in the grouper's bitmap has in row the index of its
// [del | add] pair in the pair slab (monotonic layers) and in kinds which
// halves of the pair hold a payload, or kindUser when only user events
// reach it; once the groups are open, idx is the index of its group. The
// dense route sets bits only, which is sound because materialize rewrites
// every slot it opens: a slot whose bit is clear holds kinds 0.
type gslot struct {
	idx   int32
	row   int32
	kinds uint32
}

// gslot.kinds: the halves of a monotonic [del | add] pair holding a
// payload, and the mark of a target that only user events reach.
const (
	kindDel = 1 << iota
	kindAdd
	kindUser
)

// pending is one monotonic Del and/or Add payload (nil for none) held, under
// the grouping ablation, until its target's group is open.
type pending struct {
	target   graph.NodeID
	del, add tensor.Vector
}

// grouper is the table behind the grouping pass (Engine.groupLayer): it
// buckets a layer's events by target node and reduces them per target as
// they arrive, on the calling goroutine. It is engine-owned and reused
// across layers and Apply calls: a bit per node says whether the node has a
// group this epoch, and materialize clears every bit it finds, so the
// per-node slots are never cleared; group structs — including their slice
// capacity — and slabs are recycled, so steady-state grouping does not
// allocate and involves no map operations and no sort.
type grouper struct {
	slot []gslot
	bits []uint64
	dim  int
	// merge is a monotonic layer's merge kernel, nil on an accumulative
	// layer; ungrouped keeps monotonic payloads in lists (DisableGrouping).
	merge     func(dst, a, b tensor.Vector)
	ungrouped bool

	// groups is the freelist of group structs; out = groups[:len(out)] are
	// this epoch's groups, in target order.
	groups, out []*group
	// slab holds a monotonic layer's [del | add] row pairs, 2·dim floats
	// each, in first-touch order; pend its payloads under the grouping
	// ablation. Both keep their capacity across epochs.
	slab []float32
	pend []pending
	// dense holds an accumulative layer's running sums, row v at v·dim. It
	// is all zero between epochs: begin clears the rows the previous epoch
	// handed out.
	dense []float32
}

func newGrouper(n int) *grouper {
	gr := &grouper{}
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

// begin opens a new epoch for a layer whose messages have the given
// dimension and whose monotonic merge is merge (nil when accumulative);
// ungrouped keeps monotonic payloads in lists. It first clears the dense
// rows the previous epoch handed out, if it was accumulative; an
// accumulative epoch then grows the dense slab to n·dim.
func (gr *grouper) begin(dim int, merge func(dst, a, b tensor.Vector), ungrouped bool) {
	if gr.merge == nil {
		for _, g := range gr.out {
			clear(g.sum)
		}
	}
	gr.out = gr.groups[:0]
	if n := len(gr.slot) * dim; merge == nil && len(gr.dense) < n {
		gr.dense = append(gr.dense, make([]float32, n-len(gr.dense))...)
	}
	gr.dim, gr.merge, gr.ungrouped = dim, merge, ungrouped
	gr.slab = gr.slab[:0]
	gr.pend = gr.pend[:0]
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

// mark sets target's bit: it gets a group this epoch. The dense route's
// records set theirs inside tensor.AddRows instead.
func (gr *grouper) mark(target graph.NodeID) {
	gr.bits[target>>6] |= 1 << (uint32(target) & 63)
}

// addPair routes a monotonic Del and/or Add payload (nil for none) to
// target: folded into its [del | add] row pair, whose row the first payload
// to reach the target is given, or held for its lists under the grouping
// ablation. In the pair, the first payload of each kind is copied — what
// reducing a one-payload list gives — and every later one is merged onto it
// in arrival order, so m⁻_A and m_A are the reductions of the lists the
// ablation keeps, bit for bit.
func (gr *grouper) addPair(target graph.NodeID, del, add tensor.Vector) {
	if gr.ungrouped {
		// Like the dense route, only the bit: the slot's kinds stay 0.
		gr.mark(target)
		gr.pend = append(gr.pend, pending{target, del, add})
		return
	}
	s := &gr.slot[target]
	if !gr.has(target) {
		gr.mark(target)
		*s = gslot{row: gr.newPair()}
	}
	dim := gr.dim
	off := int(s.row) * 2 * dim
	if del != nil {
		gr.fold(s, kindDel, gr.slab[off:off+dim], del)
	}
	if add != nil {
		gr.fold(s, kindAdd, gr.slab[off+dim:off+2*dim], add)
	}
}

// newPair appends a [del | add] row pair to the slab and returns its index.
// The slab may be reallocated, which is why pairs are addressed by index
// until materialize.
func (gr *grouper) newPair() int32 {
	n, w := len(gr.slab), 2*gr.dim
	gr.slab = slices.Grow(gr.slab, w)[:n+w]
	return int32(n / w)
}

// fold puts payload p into half, the kind half of s's row pair.
func (gr *grouper) fold(s *gslot, kind uint32, half, p tensor.Vector) {
	if s.kinds&kind == 0 {
		copy(half, p)
		s.kinds |= kind
	} else {
		gr.merge(half, half, p)
	}
}

// materialize ends a layer's routing. It marks the targets only user events
// reach, then opens every marked target's group once, walking the bitmap in
// order and clearing each word, so the groups come out sorted by target
// without a sort: a target with native events gets n = 1 and its rows (its
// dense row on an accumulative layer, the halves of its pair that hold a
// payload on a monotonic one), which no longer move this epoch. Each group's
// index goes into its slot, through which the user events and, under the
// grouping ablation, the held payloads then reach their groups in arrival
// order. It returns the number of targets with native events.
func (gr *grouper) materialize(user []UserEvent) (native int) {
	for _, ev := range user {
		if !gr.has(ev.Target) {
			gr.mark(ev.Target)
			gr.slot[ev.Target].kinds = kindUser
		}
	}
	for w, word := range gr.bits {
		for ; word != 0; word &= word - 1 {
			v := graph.NodeID(w<<6 | mathbits.TrailingZeros64(word))
			s := &gr.slot[v]
			g := gr.newGroup(v)
			if s.kinds != kindUser {
				gr.fill(g, s)
				native++
			}
			*s = gslot{idx: int32(len(gr.out) - 1)}
		}
		gr.bits[w] = 0
	}
	for _, ev := range user {
		g := gr.out[gr.slot[ev.Target].idx]
		g.user = append(g.user, ev)
	}
	for _, p := range gr.pend {
		g := gr.out[gr.slot[p.target].idx]
		if p.del != nil {
			g.dels = append(g.dels, p.del)
		}
		if p.add != nil {
			g.adds = append(g.adds, p.add)
		}
	}
	return native
}

// newGroup takes the next group of the freelist, appending one if it is
// exhausted, resets it for target and appends it to out.
func (gr *grouper) newGroup(target graph.NodeID) *group {
	k := len(gr.out)
	if k == len(gr.groups) {
		gr.groups = append(gr.groups, &group{})
	}
	gr.out = gr.groups[:k+1]
	g := gr.groups[k]
	g.reset(target)
	return g
}

// fill hands the group of a target with native events its count and the
// rows its slot s folded.
func (gr *grouper) fill(g *group, s *gslot) {
	g.n = 1
	dim := gr.dim
	switch {
	case gr.merge == nil:
		off := int(g.target) * dim
		g.sum = gr.dense[off : off+dim : off+dim]
	case !gr.ungrouped:
		off := int(s.row) * 2 * dim
		if s.kinds&kindDel != 0 {
			g.mDel = gr.slab[off : off+dim : off+dim]
		}
		if s.kinds&kindAdd != 0 {
			g.mAdd = gr.slab[off+dim : off+2*dim : off+2*dim]
		}
	}
}

// finish returns the epoch's per-target groups, sorted by target ID,
// applying the user-hook reduction. Sorting makes the whole engine
// deterministic for a fixed worker count: groups are processed in chunks of
// this order and what they emit is merged in the same order. The reduction
// runs on the calling goroutine: the UserHooks contract only promises
// concurrency-safety for distinct-target Apply calls.
func (gr *grouper) finish(hooks UserHooks) []*group {
	for _, g := range gr.out {
		if len(g.user) > 0 {
			g.user = hooks.Reduce(g.target, g.user)
		}
	}
	return gr.out
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

// groupLayer routes one layer's input into per-target groups on the calling
// goroutine, in one scan per aggregator kind: the changed-edge events, then
// the staged message changes of the previous layer (each folded into the
// groups of its source's out-neighbors, with no Event built). An
// accumulative layer folds into the dense slab (routeDense), a monotonic one
// into the pair slab (routeMonotonic); materialize then marks the targets of
// the carried user events and opens every group in target order. Groups
// come back sorted by target, with the number of native events the records
// stood for.
//
// Each group with native events counts one (group.n). Of the layer's
// len(edge) + routed folds, those beyond one per target are charged here,
// once for the layer: folds − targets events and dim·(folds − targets)
// FLOPs, so the counters total one event and one dim-float fold per native
// event, what a per-target fold count would have charged. The grouping
// ablation's monotonic path charges its merges as it applies them, so it
// gets the events only.
func (e *Engine) groupLayer(l int, edge []Event, recs []MessageChange, user []UserEvent) ([]*group, int) {
	agg := e.model.Layers[l].Agg()
	dim := e.model.Layers[l].MsgDim()
	routed := e.stageRecords(l, recs)
	e.c.FetchVec(routed * dim)
	gr := e.gr
	gr.begin(dim, mergeKernel(agg.Kind()), e.opts.DisableGrouping)
	if agg.Monotonic() {
		e.routeMonotonic(edge)
	} else {
		e.routeDense(edge)
	}
	extra := len(edge) + routed - gr.materialize(user)
	var t metrics.Tally
	t.AddEvents(extra)
	if !(gr.ungrouped && agg.Monotonic()) {
		t.AddFLOPs(int64(dim * extra))
	}
	t.Flush(e.c)
	return gr.finish(e.hooks), routed
}

// routeDense routes an accumulative layer: each changed-edge event is added
// into its target's dense row, each record's delta into the rows of its
// out-neighbours by one AddRows over its adjacency list — over the segments
// between its cuts, when its source gained arcs this batch, whose
// changed-edge events carry the new message already — and every fold sets
// its target's bit, AddRows in the same pass over the rows. Per target the
// fold order is the arrival order: changed-edge events in ΔG order, then
// records in record order, each in adjacency order.
func (e *Engine) routeDense(edge []Event) {
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
			tensor.AddRows(gr.dense, nbrs[lo:c], r.add, gr.bits)
			lo = int(c) + 1
		}
		tensor.AddRows(gr.dense, nbrs[lo:], r.add, gr.bits)
	}
}

// routeMonotonic routes a monotonic layer in one scan, with no filter for
// target ownership: each changed-edge event's payload, then each record's
// Del and Add payloads over its out-neighbours with its cuts skipped, go to
// addPair, which folds them into the targets' pairs as they arrive. Per
// target the arrival order is therefore changed-edge events in ΔG order,
// then records in record order.
func (e *Engine) routeMonotonic(edge []Event) {
	gr := e.gr
	for _, ev := range edge {
		if ev.Op == OpAdd {
			gr.addPair(ev.Target, nil, ev.Payload)
		} else {
			gr.addPair(ev.Target, ev.Payload, nil)
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
			gr.addPair(v, r.del, r.add)
		}
	}
}
