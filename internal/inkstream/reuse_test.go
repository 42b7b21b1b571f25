package inkstream

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

func benchApplyHubFeatures(b *testing.B) {
	spec := dataset.Yelp
	spec.Scale *= 8
	g, feats := dataset.Generate(spec, 1)
	hubs := make([]graph.NodeID, g.NumNodes())
	for i := range hubs {
		hubs[i] = graph.NodeID(i)
	}
	slices.SortFunc(hubs, func(a, c graph.NodeID) int { return cmp.Compare(g.OutDegree(c), g.OutDegree(a)) })
	rng := rand.New(rand.NewSource(5))
	var vupA, vupB []VertexUpdate
	for _, u := range hubs[:4] {
		vupA = append(vupA, VertexUpdate{Node: u, X: tensor.RandVector(rng, feats.Dim(), 1)})
		vupB = append(vupB, VertexUpdate{Node: u, X: feats.Row(int32(u)).Clone()})
	}
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
		model := gnn.NewGCN(rand.New(rand.NewSource(6)), feats.Dim(), 32, gnn.NewAggregator(kind))
		e, err := New(model, g, feats.X.Clone(), nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("features/gcn-"+kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := vupA
				if i%2 == 1 {
					v = vupB
				}
				if err := e.UpdateVertices(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestScratchReuseAcrossApplies drives one engine through many mixed
// batches — inserts, deletes, vertex updates, empty deltas — and verifies
// bit-exactness after each. This exercises the retained per-Apply scratch
// (cleared maps, payload arena rewind, event-buffer reuse): any stale state
// leaking between batches shows up as a Verify failure.
func TestScratchReuseAcrossApplies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n, feat = 40, 5
	g := randomGraph(rng, n, 3*n)
	x := tensor.RandMatrix(rng, n, feat, 1)
	model := buildModel(rng, "GCN", feat, gnn.AggMax)
	e, err := New(model, g, x, &metrics.Counters{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		var delta graph.Delta
		// A few random toggles: delete existing edges, insert new ones.
		for k := 0; k < 4; k++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			delta = append(delta, graph.EdgeChange{U: u, V: v, Insert: !g.HasEdge(u, v)})
		}
		var vups []VertexUpdate
		if round%3 == 1 {
			vups = []VertexUpdate{{Node: graph.NodeID(rng.Intn(n)), X: tensor.RandVector(rng, feat, 1)}}
		}
		if round%4 == 3 {
			delta = nil // vertex-only (or fully empty) batch
		}
		if err := e.Apply(delta, vups); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := e.Verify(0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestVertexOnlyAfterEdgeBatches checks that a vertex-only Apply after edge
// batches does not observe stale insArcs/degDelta entries (fan-out must not
// skip arcs inserted in a *previous* batch).
func TestVertexOnlyAfterEdgeBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const n, feat = 30, 4
	g := randomGraph(rng, n, 2*n)
	x := tensor.RandMatrix(rng, n, feat, 1)
	model := buildModel(rng, "SAGE", feat, gnn.AggMax)
	e, err := New(model, g, x, &metrics.Counters{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Edge batch inserting arcs out of node 0.
	var delta graph.Delta
	for v := graph.NodeID(1); len(delta) < 3; v++ {
		if !g.HasEdge(0, v) {
			delta = append(delta, graph.EdgeChange{U: 0, V: v, Insert: true})
		}
	}
	if err := e.Update(delta); err != nil {
		t.Fatal(err)
	}
	// Vertex update on node 0: its fan-out must traverse the arcs inserted
	// above (they are no longer "this batch's" insertions).
	if err := e.UpdateVertices([]VertexUpdate{{Node: 0, X: tensor.RandVector(rng, feat, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(0); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkApply measures the steady-state incremental hot path: one
// engine, alternating a batch of edge insertions with the inverse batch of
// deletions (plus a vertex-update variant), so the graph and cached state
// return to the same footprint every two iterations. Allocation counts are
// the headline number: the engine-owned scratch should keep the steady
// state near zero allocs per event. The features/ rows rewrite the features
// of the four highest-out-degree nodes of the dense profile (Yelp at the
// benchmark suite's scale) — the record-routing path at its widest, some
// hundred thousand arcs per Apply.
func BenchmarkApply(b *testing.B) {
	benchApplyHubFeatures(b)

	rng := rand.New(rand.NewSource(5))
	const n, feat, hidden = 2048, 64, 64
	g := randomGraph(rng, n, 4*n)
	x := tensor.RandMatrix(rng, n, feat, 1)

	for _, cfg := range []struct {
		name string
		kind gnn.AggKind
	}{
		{"gcn-max", gnn.AggMax},
		{"gcn-mean", gnn.AggMean},
	} {
		model := gnn.NewGCN(rand.New(rand.NewSource(6)), feat, hidden, gnn.NewAggregator(cfg.kind))
		e, err := New(model, g, x, nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		// A batch of 16 edges not currently in the graph.
		var ins graph.Delta
		for len(ins) < 16 {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			ins = append(ins, graph.EdgeChange{U: u, V: v, Insert: true})
			if err := g.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
		// Put the graph back; the benchmark inserts/removes the batch.
		for _, ch := range ins {
			if err := g.RemoveEdge(ch.U, ch.V); err != nil {
				b.Fatal(err)
			}
		}
		del := make(graph.Delta, len(ins))
		for i, ch := range ins {
			del[i] = graph.EdgeChange{U: ch.U, V: ch.V, Insert: false}
		}
		b.Run("edges/"+cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := ins
				if i%2 == 1 {
					d = del
				}
				if err := e.Update(d); err != nil {
					b.Fatal(err)
				}
			}
			// Leave the graph as it started for the next sub-benchmark.
			if b.N%2 == 1 {
				if err := e.Update(del); err != nil {
					b.Fatal(err)
				}
			}
		})
		vupA := []VertexUpdate{{Node: 7, X: tensor.RandVector(rng, feat, 1)}}
		vupB := []VertexUpdate{{Node: 7, X: x.Row(7).Clone()}}
		b.Run("vertex/"+cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := vupA
				if i%2 == 1 {
					v = vupB
				}
				if err := e.UpdateVertices(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
