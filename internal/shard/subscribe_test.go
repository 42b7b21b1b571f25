package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/tensor"
)

// communityGraph builds two dense halves joined by `bridges` edges — a graph
// whose natural 2-way cut is tiny, so subscription filtering has something
// to suppress when the partition respects the communities.
func communityGraph(rng *rand.Rand, n, intra, bridges int) *graph.Graph {
	g := graph.NewUndirected(n)
	half := n / 2
	addIn := func(lo, hi int) {
		for added := 0; added < intra; {
			u := graph.NodeID(lo + rng.Intn(hi-lo))
			v := graph.NodeID(lo + rng.Intn(hi-lo))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
			added++
		}
	}
	addIn(0, half)
	addIn(half, n)
	for added := 0; added < bridges; {
		u := graph.NodeID(rng.Intn(half))
		v := graph.NodeID(half + rng.Intn(n-half))
		if g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
		added++
	}
	return g
}

// TestSubscriptionsFromBootstrap pins the tables New reads off the shard
// graphs against their definition over the bootstrap graph: subs[s][u]
// counts the arcs from u into vertices s owns, for every u that s does not
// own — at 2 and 3 shards, every partition strategy, directed and
// undirected.
func TestSubscriptionsFromBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	const n, featLen = 40, 4
	undirected := testGraph(rng, n, 90)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMax)
	for _, g := range []*graph.Graph{undirected, oneWay(undirected)} {
		for _, shards := range []int{2, 3} {
			for _, strat := range graph.PartitionStrategies {
				rt, err := New(model, g.Clone(), x.Clone(), Config{Shards: shards, PartitionStrategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]map[graph.NodeID]int, shards)
				for s := range want {
					want[s] = make(map[graph.NodeID]int)
				}
				for _, e := range g.Edges() {
					if src, dst := rt.part.Owner(e[0]), rt.part.Owner(e[1]); src != dst {
						want[dst][e[0]]++
					}
				}
				if !reflect.DeepEqual(rt.subs, want) {
					t.Errorf("undirected=%v %s/%d: subscriptions %v, want %v", g.Undirected, strat, shards, rt.subs, want)
				}
			}
		}
	}
}

// TestSubscriptionFiltersDeliveries pins subscription filtering on a
// community graph block-partitioned along its communities: the deployment
// suppresses a nonzero number of remote deliveries, still delivers across
// the bridges and adopts ghost rows from them, and stays bit-exact against a
// standalone engine throughout.
func TestSubscriptionFiltersDeliveries(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	const n, featLen = 64, 6
	g := communityGraph(rng, n, 90, 3)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggSum)

	ref := newReference(t, model, g, x)
	filt := newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 2, PartitionStrategy: "block"})

	mirror := g.Clone()
	for step := 0; step < 12; step++ {
		delta := graph.RandomDelta(rng, mirror, 3)
		var vups []inkstream.VertexUpdate
		if step%3 == 0 {
			vups = []inkstream.VertexUpdate{{
				Node: graph.NodeID(rng.Intn(n)),
				X:    tensor.RandVector(rng, featLen, 1),
			}}
		}
		if err := filt.Apply(delta, vups); err != nil {
			t.Fatalf("step %d: deployment apply: %v", step, err)
		}
		if err := ref.apply(delta, vups); err != nil {
			t.Fatalf("step %d: engine apply: %v", step, err)
		}
		if err := delta.Apply(mirror); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			rf, _, ok := filt.ReadEmbedding(v)
			if !ok {
				t.Fatalf("step %d: node %d unreadable", step, v)
			}
			if !rf.Equal(ref.row(v)) {
				t.Fatalf("step %d: node %d diverged from the standalone engine", step, v)
			}
		}
	}

	sf := filt.Stats()
	if sf.PartitionStrategy != "block" {
		t.Fatalf("partition strategy %q, want block", sf.PartitionStrategy)
	}
	if sf.FilteredRecords == 0 {
		t.Fatal("community stream suppressed no deliveries")
	}
	if filt.rt.boundaryRecs.Load() == 0 {
		t.Fatal("bridged communities delivered no records")
	}
	if filt.rt.ghostRows.Load() == 0 {
		t.Fatal("bridged communities adopted no ghost rows")
	}
}

// TestSubscriptionZeroCut: with disconnected communities block-partitioned
// apart, nothing is subscribed, so the deployment delivers zero remote
// records — and matches both a 1-shard deployment and a standalone engine.
func TestSubscriptionZeroCut(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	const n, featLen = 48, 5
	g := communityGraph(rng, n, 60, 0)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "GIN", featLen, gnn.AggMax)

	eng := newReference(t, model, g, x)
	ref := newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 1})
	filt := newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 2, PartitionStrategy: "block"})

	half := n / 2
	for step := 0; step < 6; step++ {
		// Intra-community edge toggles only — the cut stays empty.
		lo := 0
		if step%2 == 1 {
			lo = half
		}
		u := graph.NodeID(lo + rng.Intn(half))
		v := graph.NodeID(lo + rng.Intn(half))
		if u == v {
			continue
		}
		delta := graph.Delta{{U: u, V: v, Insert: !g.HasEdge(u, v)}}
		for _, rt := range []*deployment{ref, filt} {
			if err := rt.Apply(delta, nil); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if err := eng.apply(delta, nil); err != nil {
			t.Fatalf("step %d: engine apply: %v", step, err)
		}
		if err := delta.Apply(g); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < n; w++ {
			r0, _, _ := ref.ReadEmbedding(w)
			rf, _, _ := filt.ReadEmbedding(w)
			if !r0.Equal(rf) || !r0.Equal(eng.row(w)) {
				t.Fatalf("step %d: node %d diverged", step, w)
			}
		}
	}

	sf := filt.Stats()
	if sf.CutFraction != 0 {
		t.Fatalf("cut fraction %g on disconnected communities", sf.CutFraction)
	}
	if n := filt.rt.boundaryRecs.Load(); n != 0 {
		t.Fatalf("deployment delivered %d records across an empty cut", n)
	}
	if sf.FilteredRecords == 0 {
		t.Fatal("stream produced no records to suppress — the zero is vacuous")
	}
}

// TestSubscriptionHydrationOnNewArc pins the 0→1 hydration path: a vertex's
// message rows drift for several rounds while no remote shard watches it,
// then a cross-shard edge to it appears — the subscribing shard must adopt
// the drifted rows, not the bootstrap ones, to stay bit-exact.
func TestSubscriptionHydrationOnNewArc(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	const n, featLen = 30, 5
	g := testGraph(rng, n, 50)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMean)

	part, err := graph.NewHashPartition(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A cross-shard pair with no current edge: u's rows will drift, then v
	// subscribes to u.
	var u, v graph.NodeID = -1, -1
	for a := 0; a < n && u < 0; a++ {
		for b := 0; b < n; b++ {
			if a != b && part.Owner(graph.NodeID(a)) != part.Owner(graph.NodeID(b)) &&
				!g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
				u, v = graph.NodeID(a), graph.NodeID(b)
				break
			}
		}
	}
	if u < 0 {
		t.Fatal("no cross-shard non-edge found")
	}

	ref := newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 1})
	filt := newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 2})

	apply := func(delta graph.Delta, vups []inkstream.VertexUpdate) {
		t.Helper()
		if err := ref.Apply(delta, vups); err != nil {
			t.Fatal(err)
		}
		if err := filt.Apply(delta, vups); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for w := 0; w < n; w++ {
			r0, _, _ := ref.ReadEmbedding(w)
			r1, _, _ := filt.ReadEmbedding(w)
			if !r0.Equal(r1) {
				t.Fatalf("%s: node %d diverged", when, w)
			}
		}
	}

	// Drift u's message rows while nothing on v's shard watches u.
	for i := 0; i < 4; i++ {
		apply(nil, []inkstream.VertexUpdate{{Node: u, X: tensor.RandVector(rng, featLen, 1)}})
	}
	check("during drift")

	// The new arc forces a 0→1 subscription with hydration of the drifted
	// rows; stale bootstrap ghosts would break bit-exactness immediately.
	apply(graph.Delta{{U: u, V: v, Insert: true}}, nil)
	check("after subscribe")
	apply(nil, []inkstream.VertexUpdate{{Node: u, X: tensor.RandVector(rng, featLen, 1)}})
	check("after post-subscribe update")

	// And back down to 0: removal drops the subscription the same round.
	apply(graph.Delta{{U: u, V: v, Insert: false}}, nil)
	apply(nil, []inkstream.VertexUpdate{{Node: u, X: tensor.RandVector(rng, featLen, 1)}})
	check("after unsubscribe")
}
