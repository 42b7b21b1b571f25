package inkstream

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// groupCopy is one group's routed content, copied out of the recycled group
// structs so two routes of the same input can be compared.
type groupCopy struct {
	target          graph.NodeID
	n               int
	sum, mDel, mAdd tensor.Vector
	user            []UserEvent
}

func copyGroups(groups []*group) []groupCopy {
	out := make([]groupCopy, len(groups))
	for i, g := range groups {
		out[i] = groupCopy{
			target: g.target,
			n:      g.n,
			sum:    cloneRow(g.sum),
			mDel:   cloneRow(g.mDel),
			mAdd:   cloneRow(g.mAdd),
			user:   slices.Clone(g.user),
		}
	}
	return out
}

// cloneRow copies a reduced row, keeping an absent one nil.
func cloneRow(v tensor.Vector) tensor.Vector {
	if v == nil {
		return nil
	}
	return v.Clone()
}

// sameRow reports whether two reduced rows are both absent or hold the same
// bits.
func sameRow(a, b tensor.Vector) bool {
	return (a == nil) == (b == nil) && slices.Equal(bits(a), bits(b))
}

func sameUser(a, b UserEvent) bool { return a.Target == b.Target && a.Tag == b.Tag }

// TestShardOwnership checks the scan-and-own route directly on some 10 k
// random events — changed-edge style events, message-change records over a
// random directed graph, user events: every group filled for shard s has
// target>>shift == s, the concatenation is globally sorted, and every group
// holds exactly what the sequential route gives it — the same event count,
// the same user events in the same order, bit-identical m⁻_A and m_A for max
// and a bit-identical running sum for sum (float addition does not
// reassociate, so equal bits are equal fold order).
func TestShardOwnership(t *testing.T) {
	const nodes = 1000
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggSum} {
		t.Run(kind.String(), func(t *testing.T) {
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
			model := gnn.NewGCN(rng, 4, 4, gnn.NewAggregator(kind))
			e, err := New(model, g, tensor.RandMatrix(rng, nodes, 4, 1), nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dim := model.Layers[0].MsgDim()
			edge := make([]Event, 2000)
			for i := range edge {
				op := OpUpdate
				if kind == gnn.AggMax {
					op = Op(rng.Intn(2)) // OpAdd or OpDel
				}
				edge[i] = Event{Op: op, Target: graph.NodeID(rng.Intn(nodes)), Payload: tensor.RandVector(rng, dim, 1)}
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

			setShardWorkers(t)
			e.shardMin = math.MaxInt
			seqGroups, seqRouted := e.groupLayer(0, edge, recs, user)
			if e.gr.nShards != 1 {
				t.Fatalf("sequential route used %d shards", e.gr.nShards)
			}
			if n := len(edge) + seqRouted + len(user); n < 10_000 {
				t.Fatalf("only %d events routed, want ≥ 10000", n)
			}
			want := copyGroups(seqGroups)

			e.shardMin = 1
			groups, routed := e.groupLayer(0, edge, recs, user)
			S := e.gr.nShards
			if S <= 1 {
				t.Fatal("sharded route did not shard")
			}
			if routed != seqRouted {
				t.Fatalf("routed %d events sharded, %d sequentially", routed, seqRouted)
			}
			for s := 0; s < S; s++ {
				sh := &e.gr.shards[s]
				for _, g := range sh.groups[:sh.used] {
					if got := int(uint32(g.target) >> e.gr.shift); got != s {
						t.Fatalf("target %d grouped in shard %d, owner is %d", g.target, s, got)
					}
				}
			}
			if len(groups) != len(want) {
				t.Fatalf("%d groups sharded, %d sequentially", len(groups), len(want))
			}
			for i, g := range groups {
				if i > 0 && groups[i-1].target >= g.target {
					t.Fatalf("groups not sorted: %d before %d", groups[i-1].target, g.target)
				}
				w := want[i]
				if g.target != w.target || g.n != w.n || !slices.EqualFunc(g.user, w.user, sameUser) {
					t.Fatalf("group %d: target %d n %d user %v, sequential route has target %d n %d user %v",
						i, g.target, g.n, g.user, w.target, w.n, w.user)
				}
				if !sameRow(g.mDel, w.mDel) || !sameRow(g.mAdd, w.mAdd) {
					t.Fatalf("target %d: m⁻_A or m_A differs from the sequential route", g.target)
				}
				if !sameRow(g.sum, w.sum) {
					t.Fatalf("target %d: running sum differs from the sequential route", g.target)
				}
			}
		})
	}
}

// setWorkers pins the tensor worker count for one test: the grouping
// selector reads it, and a 1-CPU host would otherwise never route sharded.
func setWorkers(t *testing.T, w int) {
	t.Helper()
	old := tensor.Parallelism
	tensor.Parallelism = w
	t.Cleanup(func() { tensor.Parallelism = old })
}

// setShardWorkers pins the worker count to GOMAXPROCS, but at least 2 so the
// sharded route runs on any host: go test -cpu 1,2,4,8 then routes across
// 4, 4, 8 and 16 shards (scripts/check.sh).
func setShardWorkers(t *testing.T) {
	t.Helper()
	setWorkers(t, max(2, runtime.GOMAXPROCS(0)))
}

// TestGroupingSelector pins the one rule that picks a grouping route, at its
// boundary: a layer one event short of shardMinEvents routes sequentially,
// a layer of exactly shardMinEvents (user events count) routes across the
// pool when there is more than one worker, and one worker never shards.
// Both sides of the boundary then apply the same batch — a directed delta of
// exactly shardMinEvents changes is exactly that many layer-0 events — to
// bit-identical state.
func TestGroupingSelector(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n, featLen = 1500, 6
	build := func() *Engine {
		rng := rand.New(rand.NewSource(3))
		g := graph.New(n)
		for g.NumEdges() < 4*n {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		x := tensor.RandMatrix(rng, n, featLen, 1)
		model := gnn.NewGIN(rng, featLen, 8, 3, gnn.NewAggregator(gnn.AggSum))
		e, err := New(model, g, x, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := build()
	dim := e.model.Layers[0].MsgDim()
	native := make([]Event, shardMinEvents)
	for i := range native {
		native[i] = Event{Op: OpUpdate, Target: graph.NodeID(rng.Intn(n)), Payload: tensor.RandVector(rng, dim, 1)}
	}
	user := []UserEvent{{Target: graph.NodeID(rng.Intn(n))}}
	routed := func(workers int, native []Event, user []UserEvent) int {
		tensor.Parallelism = workers
		e.groupLayer(0, native, nil, user)
		return e.gr.nShards
	}
	setWorkers(t, 4)
	if got := routed(4, native[:shardMinEvents-1], nil); got != 1 {
		t.Errorf("%d events, 4 workers: routed across %d shards, want sequential", shardMinEvents-1, got)
	}
	if got := routed(4, native, nil); got <= 1 {
		t.Errorf("%d events, 4 workers: routed sequentially, want sharded", shardMinEvents)
	}
	if got := routed(4, native[:shardMinEvents-1], user); got <= 1 {
		t.Errorf("%d native + 1 user event, 4 workers: routed sequentially, want sharded", shardMinEvents-1)
	}
	if got := routed(1, native, nil); got != 1 {
		t.Errorf("%d events, 1 worker: routed across %d shards, want sequential", shardMinEvents, got)
	}

	shardedEng, seqEng := build(), build()
	delta := graph.RandomDelta(rng, shardedEng.Graph(), shardMinEvents)
	tensor.Parallelism = 4
	if shardedEng.shardCount(len(delta)) <= 1 {
		t.Fatal("layer 0 of the threshold-sized batch would not route sharded")
	}
	if err := shardedEng.Update(delta); err != nil {
		t.Fatal(err)
	}
	tensor.Parallelism = 1
	if err := seqEng.Update(delta); err != nil {
		t.Fatal(err)
	}
	if !shardedEng.State().Equal(seqEng.State()) {
		t.Fatalf("state differs across the selector boundary (output max diff %g)",
			shardedEng.Output().MaxAbsDiff(seqEng.Output()))
	}
}

// TestShardedGroupingEquivalence: the sharded event router must be
// bit-exact with the sequential one for every aggregator kind — not just
// within tolerance — because it reproduces the identical group order,
// group contents and within-group event order (DESIGN.md §6.3).
func TestShardedGroupingEquivalence(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			build := func(shardMin int) *Engine {
				rng := rand.New(rand.NewSource(99))
				g := randomGraph(rng, 400, 1600)
				x := tensor.RandMatrix(rng, 400, 6, 1)
				model := gnn.NewGIN(rng, 6, 8, 3, gnn.NewAggregator(kind))
				e, err := New(model, g, x, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				e.shardMin = shardMin
				return e
			}
			// A threshold of 1 forces the sharded router on every layer of
			// the first engine; the second always routes sequentially.
			setShardWorkers(t)
			sharded := build(1)
			seq := build(math.MaxInt)
			drng := rand.New(rand.NewSource(5))
			for batch := 0; batch < 4; batch++ {
				delta := graph.RandomDelta(drng, sharded.Graph(), 80)
				if err := sharded.Update(delta); err != nil {
					t.Fatalf("sharded batch %d: %v", batch, err)
				}
				if err := seq.Update(delta); err != nil {
					t.Fatalf("sequential batch %d: %v", batch, err)
				}
				if !sharded.State().Equal(seq.State()) {
					t.Fatalf("batch %d: sharded state not bit-identical (output max diff %g)",
						batch, sharded.Output().MaxAbsDiff(seq.Output()))
				}
			}
		})
	}
}

// TestShardedGrouperStress drives the sharded router hard enough for the
// race detector to see the pool workers writing the shared per-node slot
// table (disjoint per shard by construction), then verifies the state
// against a from-scratch recomputation. Runs in every `go test` run but is
// load-bearing under -race (scripts/check.sh).
func TestShardedGrouperStress(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 600, 3000)
	x := tensor.RandMatrix(rng, 600, 8, 1)
	model := gnn.NewGIN(rng, 8, 16, 3, gnn.NewAggregator(gnn.AggMax))
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setWorkers(t, 4)
	e.shardMin = 1
	batches := 12
	if testing.Short() {
		batches = 4
	}
	for batch := 0; batch < batches; batch++ {
		delta := graph.RandomDelta(rng, e.Graph(), 120)
		if err := e.Update(delta); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if err := e.Verify(0); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkApplyShardedGrouping measures Apply over deltas large enough for
// the sharded route; the delta stream is pre-generated and replayed as
// insert/delete toggles so every iteration does identical work.
func BenchmarkApplyShardedGrouping(b *testing.B) {
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
// brute-force per-target reduction: for max and min, over both routes, every
// group's m⁻_A and m_A carry exactly the bits reduceByDefinition gives the
// target's Del and Add payloads in arrival order — changed-edge events in
// list order, then each record's Old and New in record order — and are nil
// exactly when no payload of that kind arrived; its event count is the
// number of payloads. The payloads tie on ±0 and carry NaNs, so a fold that
// merged in another order, or started from an identity row instead of the
// first payload, comes out with other bits or a row where none belongs.
func TestMonotonicFoldMatchesDefinition(t *testing.T) {
	const nodes = 400
	setShardWorkers(t)
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMin} {
		rng := rand.New(rand.NewSource(41))
		g := graph.New(nodes)
		for g.NumEdges() < 8*nodes {
			u, v := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
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
		dim := model.Layers[0].MsgDim()
		edge := make([]Event, 600)
		for i := range edge {
			edge[i] = Event{Op: Op(rng.Intn(2)), Target: graph.NodeID(rng.Intn(nodes)), Payload: foldSpecialVector(rng, dim)}
		}
		var recs []MessageChange
		for u := graph.NodeID(0); u < nodes; u++ {
			if rng.Intn(3) == 0 {
				recs = append(recs, MessageChange{Node: u, Old: foldSpecialVector(rng, dim), New: foldSpecialVector(rng, dim)})
			}
		}
		dels := make([][]tensor.Vector, nodes)
		adds := make([][]tensor.Vector, nodes)
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
		for _, shardMin := range []int{1, math.MaxInt} {
			e.shardMin = shardMin
			groups, _ := e.groupLayer(0, edge, recs, nil)
			if shardMin == 1 && e.gr.nShards <= 1 {
				t.Fatal("sharded route did not shard")
			}
			seen := 0
			for _, gr := range groups {
				v := gr.target
				what := fmt.Sprintf("%s shards=%d target %d", kind, e.gr.nShards, v)
				if gr.n != len(dels[v])+len(adds[v]) {
					t.Fatalf("%s: %d events folded, %d arrived", what, gr.n, len(dels[v])+len(adds[v]))
				}
				if want := reduceByDefinition(kind, dels[v]); !sameRow(gr.mDel, want) {
					t.Fatalf("%s: m⁻_A = %#x, definition gives %#x", what, bits(gr.mDel), bits(want))
				}
				if want := reduceByDefinition(kind, adds[v]); !sameRow(gr.mAdd, want) {
					t.Fatalf("%s: m_A = %#x, definition gives %#x", what, bits(gr.mAdd), bits(want))
				}
				seen++
			}
			want := 0
			for v := range dels {
				if len(dels[v])+len(adds[v]) > 0 {
					want++
				}
			}
			if seen != want {
				t.Fatalf("%s shards=%d: %d groups, %d targets received payloads", kind, e.gr.nShards, seen, want)
			}
		}
	}
}

// TestGroupOrderFromBitmap: groups come out in target order, one per target
// that received an event, and leave the grouper's bitmap clear, at 1, 2·w
// (w = GOMAXPROCS, at least 2) and 16 shards — on a graph of fewer than
// 64·S nodes, so some shards own no ID at all — and again after AddNode has
// grown the node table past a bitmap word. Vertex updates, which find
// duplicates through the same bitmap, must leave it clear too.
func TestGroupOrderFromBitmap(t *testing.T) {
	const nodes, featLen = 180, 4 // 3 bitmap words, 4 after AddNode
	rng := rand.New(rand.NewSource(43))
	model := gnn.NewGCN(rng, featLen, 4, gnn.NewAggregator(gnn.AggSum))
	e, err := New(model, randomGraph(rng, nodes, 4*nodes), tensor.RandMatrix(rng, nodes, featLen, 1), nil, Options{})
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
	w := max(2, runtime.GOMAXPROCS(0))
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
		for _, c := range []struct{ workers, shardMin, shards int }{
			{w, math.MaxInt, 1}, {w, 1, 2 * w}, {8, 1, 16},
		} {
			setWorkers(t, c.workers)
			e.shardMin = c.shardMin
			edge := make([]Event, 700)
			targets := map[graph.NodeID]bool{}
			for i := range edge {
				v := graph.NodeID(rng.Intn(n))
				if i < 8 {
					v = graph.NodeID(n - 1 - i) // the last IDs, new ones after AddNode
				}
				edge[i] = Event{Op: OpUpdate, Target: v, Payload: tensor.RandVector(rng, dim, 1)}
				targets[v] = true
			}
			user := make([]UserEvent, 50)
			for i := range user {
				user[i] = UserEvent{Target: graph.NodeID(rng.Intn(n))}
				targets[user[i].Target] = true
			}
			groups, _ := e.groupLayer(0, edge, nil, user)
			what := fmt.Sprintf("%d nodes, %d shards", n, e.gr.nShards)
			if e.gr.nShards != c.shards || c.shards > 1 && 64*c.shards <= n {
				t.Fatalf("%s: want %d shards over fewer than 64·S nodes", what, c.shards)
			}
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
