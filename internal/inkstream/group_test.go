package inkstream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// sameRow reports whether two reduced rows are both absent or hold the same
// bits.
func sameRow(a, b tensor.Vector) bool {
	return (a == nil) == (b == nil) && slices.Equal(bits(a), bits(b))
}

func sameUser(a, b UserEvent) bool { return a.Target == b.Target && a.Tag == b.Tag }

// TestShardOwnership checks what each group of a sum layer owns after the
// one-pass route: some 10 k random events — changed-edge style events,
// message-change records over a random directed graph, user events — and
// every group holds exactly its own target's share, the per-target fold
// written out: changed-edge payloads in list order, then every record's
// New − Old over its arcs in record order, bit for bit (float addition does
// not reassociate, so equal bits are equal fold order), with the layer's
// charged events and FLOPs its folds exactly (checkSumsByDefinition).
func TestShardOwnership(t *testing.T) {
	t.Run(gnn.AggSum.String(), func(t *testing.T) {
		const nodes = 1000
		rng := rand.New(rand.NewSource(7))
		g := graph.New(nodes)
		for g.NumEdges() < 16*nodes {
			u, v := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		model := gnn.NewGCN(rng, 4, 4, gnn.NewAggregator(gnn.AggSum))
		e, err := New(model, g, tensor.RandMatrix(rng, nodes, 4, 1), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dim := model.Layers[0].MsgDim()
		edge := make([]Event, 2000)
		for i := range edge {
			edge[i] = Event{Op: OpUpdate, Target: graph.NodeID(rng.Intn(nodes)), Payload: tensor.RandVector(rng, dim, 1)}
		}
		// Records in node order, as the engine carries them.
		var recs []MessageChange
		for u := graph.NodeID(0); u < nodes; u++ {
			if rng.Intn(2) == 0 {
				recs = append(recs, MessageChange{Node: u, Old: tensor.RandVector(rng, dim, 1), New: tensor.RandVector(rng, dim, 1)})
			}
		}
		user := make([]UserEvent, 500)
		for i := range user {
			user[i] = UserEvent{Target: graph.NodeID(rng.Intn(nodes)), Tag: i}
		}
		e.SetHooks(NopHooks{}) // keep every user event: SelfHooks dedups
		e.c = &metrics.Counters{}
		groups, routed := e.groupLayer(0, edge, recs, user)
		if n := len(edge) + routed + len(user); n < 10_000 {
			t.Fatalf("only %d events routed, want ≥ 10000", n)
		}
		checkSumsByDefinition(t, e, edge, recs, user, nil, groups)
	})
}

// checkSumsByDefinition holds the groups of one accumulative layer 0 of e,
// just routed into fresh counters e.c, to the per-target fold written out:
// the target's changed-edge payloads in list order, then New − Old of every
// record with an arc to it that is not in inserted (the arcs the batch
// inserted) in record order, folded from a zero row; its user events arrive
// in list order. A target with only user events has no sum, and a target
// with neither no group. The layer's charged totals — what routing charged
// into e.c plus what processing charges each group (processTarget's n native
// and user events, applyAccumulative's FLOPs) — come to one event per fold
// and per user event and dim·(folds + 1) FLOPs per folded target.
func checkSumsByDefinition(t *testing.T, e *Engine, edge []Event, recs []MessageChange, user []UserEvent, inserted map[[2]graph.NodeID]bool, groups []*group) {
	t.Helper()
	g, dim := e.g, e.model.Layers[0].MsgDim()
	n := g.NumNodes()
	sums, folds := make([]tensor.Vector, n), make([]int, n)
	users := make([][]UserEvent, n)
	fold := func(v graph.NodeID, p tensor.Vector) {
		if sums[v] == nil {
			sums[v] = tensor.NewVector(dim)
		}
		tensor.Add(sums[v], sums[v], p)
		folds[v]++
	}
	for _, ev := range edge {
		fold(ev.Target, ev.Payload)
	}
	for _, r := range recs {
		diff := tensor.NewVector(dim)
		tensor.Sub(diff, r.New, r.Old)
		for _, v := range g.OutNeighbors(r.Node) {
			if !inserted[[2]graph.NodeID{r.Node, v}] {
				fold(v, diff)
			}
		}
	}
	for _, ev := range user {
		users[ev.Target] = append(users[ev.Target], ev)
	}
	var wantEvents, wantFLOPs int64
	i := 0
	for v := graph.NodeID(0); int(v) < n; v++ {
		if folds[v] == 0 && len(users[v]) == 0 {
			continue
		}
		wantEvents += int64(folds[v] + len(users[v]))
		if folds[v] > 0 {
			wantFLOPs += int64(dim * (folds[v] + 1))
		}
		if i == len(groups) || groups[i].target != v {
			t.Fatalf("target %d received events but has no group at position %d", v, i)
		}
		gr := groups[i]
		if gr.hasNative() != (folds[v] > 0) || !slices.EqualFunc(gr.user, users[v], sameUser) {
			t.Fatalf("target %d: native %v user %v, definition gives %d folds user %v", v, gr.hasNative(), gr.user, folds[v], users[v])
		}
		if !sameRow(gr.sum, sums[v]) || gr.mDel != nil || gr.mAdd != nil {
			t.Fatalf("target %d: running sum %#x, definition gives %#x", v, bits(gr.sum), bits(sums[v]))
		}
		i++
	}
	if i != len(groups) {
		t.Fatalf("%d groups, %d targets received events", len(groups), i)
	}
	var tl metrics.Tally
	for _, gr := range groups {
		tl.AddEvents(gr.n + len(gr.user))
		if gr.hasNative() {
			e.applyAccumulative(0, gr, &tl)
		}
	}
	tl.Flush(e.c)
	if got := e.c.Snapshot(); got.EventsProcessed != wantEvents || got.FLOPs != wantFLOPs {
		t.Fatalf("layer charged %d events and %d FLOPs, definition gives %d and %d",
			got.EventsProcessed, got.FLOPs, wantEvents, wantFLOPs)
	}
}

// TestDenseRouteSkipsInsertedArcs routes one accumulative layer of a real
// batch on an undirected graph — sum and mean — in which 40 sources each
// gain one to four edges and then lose up to two older ones, so the
// swap-removal moves some inserted arcs forward from the adjacency tail, and
// every one of them also sends a record: each target's running sum must be
// the fold written out with the inserted arcs, both directions, left to
// their changed-edge events (checkSumsByDefinition), and the layer's charged
// events and FLOPs its folds exactly.
func TestDenseRouteSkipsInsertedArcs(t *testing.T) {
	const nodes, featLen = 400, 4
	for _, kind := range []gnn.AggKind{gnn.AggSum, gnn.AggMean} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			g := randomGraph(rng, nodes, 8*nodes)
			model := gnn.NewGCN(rng, featLen, 4, gnn.NewAggregator(kind))
			e, err := New(model, g, tensor.RandMatrix(rng, nodes, featLen, 1), nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var delta graph.Delta
			inserted, removed := map[[2]graph.NodeID]bool{}, map[[2]graph.NodeID]bool{}
			change := func(set map[[2]graph.NodeID]bool, u, v graph.NodeID, insert bool) {
				delta = append(delta, graph.EdgeChange{U: u, V: v, Insert: insert})
				set[[2]graph.NodeID{u, v}], set[[2]graph.NodeID{v, u}] = true, true
			}
			var srcs []graph.NodeID
			for _, k := range rng.Perm(nodes)[:40] {
				u := graph.NodeID(k)
				srcs = append(srcs, u)
				for added := 1 + rng.Intn(4); added > 0; {
					if v := graph.NodeID(rng.Intn(nodes)); v != u && !g.HasEdge(u, v) && !inserted[[2]graph.NodeID{u, v}] {
						change(inserted, u, v, true)
						added--
					}
				}
			}
			for _, u := range srcs {
				for _, v := range g.OutNeighbors(u)[:min(rng.Intn(3), g.OutDegree(u))] {
					if !removed[[2]graph.NodeID{u, v}] {
						change(removed, u, v, false)
					}
				}
			}
			oldMsg, err := e.stageBatch(delta, nil)
			if err != nil {
				t.Fatal(err)
			}
			edge := e.appendChangedEdgeEvents(nil, 0, delta, oldMsg)
			slices.Sort(srcs)
			dim := model.Layers[0].MsgDim()
			var recs []MessageChange
			for _, u := range srcs {
				recs = append(recs, MessageChange{Node: u, Old: tensor.RandVector(rng, dim, 1), New: tensor.RandVector(rng, dim, 1)})
			}
			user := make([]UserEvent, 50)
			for i := range user {
				user[i] = UserEvent{Target: graph.NodeID(rng.Intn(nodes)), Tag: i}
			}
			e.SetHooks(NopHooks{})
			moved := 0
			for _, u := range srcs {
				nbrs := e.g.OutNeighbors(u)
				for j, v := range nbrs {
					if inserted[[2]graph.NodeID{u, v}] && j < len(nbrs)-len(e.insertedFrom(u)) {
						moved++
					}
				}
			}
			if moved == 0 {
				t.Fatal("no inserted arc was swapped forward from the adjacency tail")
			}
			e.c = &metrics.Counters{}
			groups, _ := e.groupLayer(0, edge, recs, user)
			checkSumsByDefinition(t, e, edge, recs, user, inserted, groups)
		})
	}
}

// setWorkers pins the tensor worker count for one test, which sets how
// processRange splits a layer's targets into chunks.
func setWorkers(t *testing.T, w int) {
	t.Helper()
	old := tensor.Parallelism
	tensor.Parallelism = w
	t.Cleanup(func() { tensor.Parallelism = old })
}

// BenchmarkApplyLargeBatch measures Apply of 256-edge batches on a GIN-max
// model; the delta stream is pre-generated and replayed as insert/delete toggles so every iteration
// does identical work.
func BenchmarkApplyLargeBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 4000, 20_000)
	x := tensor.RandMatrix(rng, 4000, 16, 1)
	model := gnn.NewGIN(rng, 16, 32, 3, gnn.NewAggregator(gnn.AggMax))
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	// An alternating insert/remove pair over a fixed edge set keeps the
	// graph (and thus per-iteration work) stable.
	var absent graph.Delta
	for len(absent) < 256 {
		u := graph.NodeID(rng.Intn(4000))
		v := graph.NodeID(rng.Intn(4000))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		absent = append(absent, graph.EdgeChange{U: u, V: v, Insert: true})
	}
	removal := make(graph.Delta, len(absent))
	for i, ch := range absent {
		ch.Insert = false
		removal[i] = ch
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			err = e.Update(absent)
		} else {
			err = e.Update(removal)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// foldSpecials are the payload values of the monotonic fold definition test:
// ±0 (a tie between them keeps the operand merged first), NaNs with distinct
// payloads (a NaN loses to whatever it is merged with, or wins when merged
// onto, depending on operand order), infinities and a few plain values —
// few enough that most lanes of a target's payloads tie.
var foldSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00123), math.Float32frombits(0xffc00456),
	float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1, 2,
}

func foldSpecialVector(rng *rand.Rand, dim int) tensor.Vector {
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = foldSpecials[rng.Intn(len(foldSpecials))]
	}
	return v
}

// reduceByDefinition is the per-target reduction of Sec. II-B1 written out:
// nil for no payloads, else the first payload copied and every later one
// merged onto it in arrival order, lane by lane, by the selection rule of
// the kind — max keeps the accumulated lane where acc >= p, min where
// acc <= p, and takes p otherwise.
func reduceByDefinition(kind gnn.AggKind, payloads []tensor.Vector) tensor.Vector {
	if len(payloads) == 0 {
		return nil
	}
	acc := payloads[0].Clone()
	for _, p := range payloads[1:] {
		for i := range acc {
			keep := acc[i] >= p[i]
			if kind == gnn.AggMin {
				keep = acc[i] <= p[i]
			}
			if !keep {
				acc[i] = p[i]
			}
		}
	}
	return acc
}

// TestMonotonicFoldMatchesDefinition pins the on-arrival monotonic fold to a
// brute-force per-target reduction: for max and min, every group's m⁻_A and
// m_A carry exactly the bits reduceByDefinition gives the target's Del and
// Add payloads in arrival order — changed-edge events in list order, then
// each record's Old and New in record order — and are nil exactly when no
// payload of that kind arrived. The payloads tie on ±0 and carry NaNs, so a
// fold that merged in another order, or started from an identity row instead
// of the first payload, comes out with other bits or a row where none
// belongs. User events reach targets with payloads and, on the last 50
// nodes, targets without any, whose groups hold their user events and no
// rows. The layer's charged events total one per payload and per user event,
// its fold FLOPs dim per payload.
func TestMonotonicFoldMatchesDefinition(t *testing.T) {
	const nodes, userOnly = 400, 50
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMin} {
		rng := rand.New(rand.NewSource(41))
		g := graph.New(nodes)
		for g.NumEdges() < 8*nodes {
			u, v := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes-userOnly))
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		model := gnn.NewGCN(rng, 4, 6, gnn.NewAggregator(kind))
		e, err := New(model, g, tensor.RandMatrix(rng, nodes, 4, 1), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.SetHooks(NopHooks{}) // keep every user event: SelfHooks dedups
		dim := model.Layers[0].MsgDim()
		edge := make([]Event, 600)
		for i := range edge {
			edge[i] = Event{Op: Op(rng.Intn(2)), Target: graph.NodeID(rng.Intn(nodes - userOnly)), Payload: foldSpecialVector(rng, dim)}
		}
		var recs []MessageChange
		for u := graph.NodeID(0); u < nodes; u++ {
			if rng.Intn(3) == 0 {
				recs = append(recs, MessageChange{Node: u, Old: foldSpecialVector(rng, dim), New: foldSpecialVector(rng, dim)})
			}
		}
		user := make([]UserEvent, 300)
		for i := range user {
			user[i] = UserEvent{Target: graph.NodeID(rng.Intn(nodes)), Tag: i}
		}
		dels := make([][]tensor.Vector, nodes)
		adds := make([][]tensor.Vector, nodes)
		users := make([][]UserEvent, nodes)
		for _, ev := range edge {
			if ev.Op == OpDel {
				dels[ev.Target] = append(dels[ev.Target], ev.Payload)
			} else {
				adds[ev.Target] = append(adds[ev.Target], ev.Payload)
			}
		}
		for _, r := range recs {
			for _, v := range g.OutNeighbors(r.Node) {
				dels[v] = append(dels[v], r.Old)
				adds[v] = append(adds[v], r.New)
			}
		}
		for _, ev := range user {
			users[ev.Target] = append(users[ev.Target], ev)
		}
		e.c = &metrics.Counters{}
		groups, _ := e.groupLayer(0, edge, recs, user)
		var tl metrics.Tally
		seen, seenUserOnly := 0, 0
		for _, gr := range groups {
			v := gr.target
			what := fmt.Sprintf("%s target %d", kind, v)
			payloads := len(dels[v]) + len(adds[v])
			if gr.hasNative() != (payloads > 0) || !slices.EqualFunc(gr.user, users[v], sameUser) {
				t.Fatalf("%s: native %v user %v, %d payloads and user %v arrived", what, gr.hasNative(), gr.user, payloads, users[v])
			}
			if want := reduceByDefinition(kind, dels[v]); !sameRow(gr.mDel, want) {
				t.Fatalf("%s: m⁻_A = %#x, definition gives %#x", what, bits(gr.mDel), bits(want))
			}
			if want := reduceByDefinition(kind, adds[v]); !sameRow(gr.mAdd, want) {
				t.Fatalf("%s: m_A = %#x, definition gives %#x", what, bits(gr.mAdd), bits(want))
			}
			if payloads == 0 {
				seenUserOnly++
			}
			tl.AddEvents(gr.n + len(gr.user))
			tl.AddFLOPs(int64(dim * gr.n))
			seen++
		}
		want, wantEvents := 0, int64(len(user))
		for v := range dels {
			wantEvents += int64(len(dels[v]) + len(adds[v]))
			if len(dels[v])+len(adds[v])+len(users[v]) > 0 {
				want++
			}
		}
		if seen != want || seenUserOnly == 0 {
			t.Fatalf("%s: %d groups (%d user-only), %d targets received events", kind, seen, seenUserOnly, want)
		}
		tl.Flush(e.c)
		if got, wantFLOPs := e.c.Snapshot(), int64(dim)*(wantEvents-int64(len(user))); got.EventsProcessed != wantEvents || got.FLOPs != wantFLOPs {
			t.Fatalf("%s: layer charged %d events and %d fold FLOPs, definition gives %d and %d",
				kind, got.EventsProcessed, got.FLOPs, wantEvents, wantFLOPs)
		}
	}
}

// TestGroupOrderFromBitmap: groups come out in target order, one per target
// that received an event, and leave the grouper's bitmap clear — on a max
// layer through the pair slab and on a sum layer through the dense slab —
// and again after AddNode has grown the node table past a bitmap word.
// Vertex updates, which find duplicates through the same bitmap, must leave
// it clear too.
func TestGroupOrderFromBitmap(t *testing.T) {
	const nodes, featLen = 180, 4 // 3 bitmap words, 4 after AddNode
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, nodes, 4*nodes)
	x := tensor.RandMatrix(rng, nodes, featLen, 1)
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggSum} {
		model := gnn.NewGCN(rng, featLen, 4, gnn.NewAggregator(kind))
		e, err := New(model, g.Clone(), x.Clone(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.SetHooks(NopHooks{})
		dim := model.Layers[0].MsgDim()
		bitmapClear := func(what string) {
			t.Helper()
			for w, word := range e.gr.bits {
				if word != 0 {
					t.Fatalf("%s: bitmap word %d = %#x after the layer", what, w, word)
				}
			}
		}
		for _, grow := range []int{0, 40} {
			for i := 0; i < grow; i++ {
				if _, err := e.AddNode(tensor.RandVector(rng, featLen, 1)); err != nil {
					t.Fatal(err)
				}
			}
			n := e.Graph().NumNodes()
			if len(e.gr.bits) != (n+63)/64 {
				t.Fatalf("%d nodes, %d bitmap words", n, len(e.gr.bits))
			}
			edge := make([]Event, 700)
			targets := map[graph.NodeID]bool{}
			for i := range edge {
				v := graph.NodeID(rng.Intn(n))
				if i < 8 {
					v = graph.NodeID(n - 1 - i) // the last IDs, new ones after AddNode
				}
				op := OpUpdate
				if kind == gnn.AggMax {
					op = Op(rng.Intn(2))
				}
				edge[i] = Event{Op: op, Target: v, Payload: tensor.RandVector(rng, dim, 1)}
				targets[v] = true
			}
			user := make([]UserEvent, 50)
			for i := range user {
				user[i] = UserEvent{Target: graph.NodeID(rng.Intn(n))}
				targets[user[i].Target] = true
			}
			groups, _ := e.groupLayer(0, edge, nil, user)
			what := fmt.Sprintf("%s, %d nodes", kind, n)
			var want []graph.NodeID
			for v := range targets {
				want = append(want, v)
			}
			slices.Sort(want)
			got := make([]graph.NodeID, len(groups))
			for i, g := range groups {
				got[i] = g.target
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: group targets %v, want %v", what, got, want)
			}
			bitmapClear(what)
		}
		ups := []VertexUpdate{{Node: 5, X: tensor.NewVector(featLen)}, {Node: 9, X: tensor.NewVector(featLen)}, {Node: 5, X: tensor.NewVector(featLen)}}
		if err := e.UpdateVertices(ups); err == nil {
			t.Fatal("duplicate vertex update accepted")
		}
		bitmapClear("refused vertex updates")
		if err := e.UpdateVertices(ups[:2]); err != nil {
			t.Fatal(err)
		}
		bitmapClear("vertex updates")
	}
}

// checkDenseSlab holds the grouper's dense slab to its invariant after an
// Apply: no float outside the rows the last epoch handed out is nonzero, and
// once the next epoch begins none is.
func checkDenseSlab(t *testing.T, e *Engine, what string) {
	t.Helper()
	gr := e.gr
	live := make([]bool, len(gr.dense))
	for _, g := range gr.out {
		if g.sum != nil {
			off := int(g.target) * gr.dim
			for i := range g.sum {
				live[off+i] = true
			}
		}
	}
	for i, f := range gr.dense {
		if f != 0 && !live[i] {
			t.Fatalf("%s: dense float %d is %g outside the rows the last epoch handed out", what, i, f)
		}
	}
	gr.begin(1, tensor.EltMax, false)
	for i, f := range gr.dense {
		if f != 0 {
			t.Fatalf("%s: dense float %d is %g when an epoch begins", what, i, f)
		}
	}
}

// TestDenseSlabZeroAfterApply: the dense sum slab is zero between epochs
// after every Apply — edge batches, feature rewrites, a refused batch, and
// batches after AddNode has grown it — on a mean model and on the stacks
// that alternate max and mean layers, so a sum row left behind would fold
// into the next epoch's.
func TestDenseSlabZeroAfterApply(t *testing.T) {
	const nodes, featLen = 120, 5
	for _, kinds := range [][]gnn.AggKind{{gnn.AggMean}, {gnn.AggMax, gnn.AggMean}, {gnn.AggMean, gnn.AggMax}} {
		name := ""
		for _, k := range kinds {
			name += k.String() + "-"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(53))
			model := mixedModel(rng, featLen, kinds...)
			e, err := New(model, randomGraph(rng, nodes, 4*nodes), tensor.RandMatrix(rng, nodes, featLen, 1), nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dim := 0
			for _, layer := range model.Layers {
				if !layer.Agg().Monotonic() {
					dim = max(dim, layer.MsgDim())
				}
			}
			apply := func(what string, delta graph.Delta, nodes ...graph.NodeID) {
				t.Helper()
				var vups []VertexUpdate
				for _, v := range nodes {
					vups = append(vups, VertexUpdate{Node: v, X: tensor.RandVector(rng, featLen, 1)})
				}
				if err := e.Apply(delta, vups); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkDenseSlab(t, e, what)
			}
			for b := 0; b < 4; b++ {
				apply(fmt.Sprintf("batch %d", b), graph.RandomDelta(rng, e.Graph(), 20), graph.NodeID(rng.Intn(nodes)))
			}
			u := e.Graph().OutNeighbors(3)[0]
			if err := e.Apply(graph.Delta{{U: 3, V: u, Insert: true}}, nil); err == nil {
				t.Fatal("insertion of an existing arc accepted")
			}
			checkDenseSlab(t, e, "refused batch")
			for i := 0; i < 70; i++ { // past a bitmap word
				if _, err := e.AddNode(tensor.RandVector(rng, featLen, 1)); err != nil {
					t.Fatal(err)
				}
			}
			n := graph.NodeID(e.Graph().NumNodes())
			apply("first batch after AddNode", graph.Delta{{U: 3, V: n - 1, Insert: true}, {U: n - 1, V: 4, Insert: true}, {U: n - 2, V: n - 1, Insert: true}}, 3, n-2)
			if want := int(n) * dim; len(e.gr.dense) != want {
				t.Fatalf("dense slab of %d floats after AddNode, want %d", len(e.gr.dense), want)
			}
			apply("second batch after AddNode", graph.RandomDelta(rng, e.Graph(), 20), n-1)
			if err := e.Verify(2e-3); err != nil {
				t.Fatal(err)
			}
		})
	}
}
