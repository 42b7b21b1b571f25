package inkstream

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// groupCopy is one group's routed content, copied out of the recycled group
// structs so two routes of the same input can be compared.
type groupCopy struct {
	target     graph.NodeID
	dels, adds []tensor.Vector
	sum        tensor.Vector
	nUpd       int
	user       []UserEvent
}

func copyGroups(groups []*group) []groupCopy {
	out := make([]groupCopy, len(groups))
	for i, g := range groups {
		out[i] = groupCopy{
			target: g.target,
			dels:   slices.Clone(g.dels),
			adds:   slices.Clone(g.adds),
			sum:    g.sum.Clone(),
			nUpd:   g.nUpd,
			user:   slices.Clone(g.user),
		}
	}
	return out
}

// samePayloads reports whether two payload lists hold the same vectors (not
// just equal ones) in the same order.
func samePayloads(a, b []tensor.Vector) bool {
	return slices.EqualFunc(a, b, func(x, y tensor.Vector) bool { return &x[0] == &y[0] })
}

func sameUser(a, b UserEvent) bool { return a.Target == b.Target && a.Tag == b.Tag }

// TestShardOwnership checks the scan-and-own route directly on some 10 k
// random events — changed-edge style events, message-change records over a
// random directed graph, user events: every group filled for shard s has
// target>>shift == s, the concatenation is globally sorted, and every group
// holds exactly what the sequential route gives it, in the same order — the
// same payload vectors for max, a bit-identical running sum for sum (float
// addition does not reassociate, so equal bits are equal fold order).
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

			setWorkers(t, 4)
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
				if g.target != w.target || g.nUpd != w.nUpd || !slices.EqualFunc(g.user, w.user, sameUser) {
					t.Fatalf("group %d: target %d nUpd %d user %v, sequential route has target %d nUpd %d user %v",
						i, g.target, g.nUpd, g.user, w.target, w.nUpd, w.user)
				}
				if !samePayloads(g.dels, w.dels) || !samePayloads(g.adds, w.adds) {
					t.Fatalf("target %d: payload order differs from the sequential route", g.target)
				}
				if !g.sum.Equal(w.sum) {
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
			setWorkers(t, 4)
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
