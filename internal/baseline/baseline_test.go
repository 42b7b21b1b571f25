package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func randomGraph(rng *rand.Rand, n, edges int) *graph.Graph {
	g := graph.NewUndirected(n)
	for g.NumEdges() < edges {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

func TestFullNoSamplerMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 30, 90)
	x := tensor.RandMatrix(rng, 30, 5, 1)
	model := gnn.NewGCN(rng, 5, 8, gnn.NewAggregator(gnn.AggMax))
	f := &Full{Model: model}
	got, err := f.Infer(g, x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("Full without sampler must equal plain inference")
	}
}

func TestFullSamplerDeterministicAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 60, 400)
	x := tensor.RandMatrix(rng, 60, 5, 1)
	model := gnn.NewGCN(rng, 5, 8, gnn.NewAggregator(gnn.AggMean))
	f := &Full{Model: model, Fanout: 3, Seed: 7}
	a, err := f.Infer(g, x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Infer(g, x)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("sampled inference with fixed seed must be deterministic")
	}
}

func TestKHopMatchesFullRecompute(t *testing.T) {
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMin, gnn.AggMean, gnn.AggSum} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			g := randomGraph(rng, 80, 240)
			x := tensor.RandMatrix(rng, 80, 5, 1)
			var models []*gnn.Model
			models = append(models,
				gnn.NewGCN(rng, 5, 8, gnn.NewAggregator(kind)),
				gnn.NewSAGE(rng, 5, 8, gnn.NewAggregator(kind)),
				gnn.NewGIN(rng, 5, 8, 3, gnn.NewAggregator(kind)))
			for _, model := range models {
				var c metrics.Counters
				kh, err := NewKHop(model, g.Clone(), x, &c)
				if err != nil {
					t.Fatal(err)
				}
				for batch := 0; batch < 2; batch++ {
					delta := graph.RandomDelta(rng, kh.Graph(), 8)
					if err := kh.Update(delta); err != nil {
						t.Fatal(err)
					}
					want, err := gnn.Infer(model, kh.Graph(), x, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !kh.Output().ApproxEqual(want.Output(), 1e-4) {
						t.Fatalf("%s batch %d: k-hop output diverged (max diff %g)",
							model.Name, batch, kh.Output().MaxAbsDiff(want.Output()))
					}
					if kh.LastAffected == 0 {
						t.Errorf("%s: affected area empty", model.Name)
					}
				}
				if c.Snapshot().BytesFetched == 0 {
					t.Error("k-hop counters empty")
				}
			}
		})
	}
}

func TestKHopRejectsInvalidDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 20, 40)
	x := tensor.RandMatrix(rng, 20, 4, 1)
	model := gnn.NewGCN(rng, 4, 4, gnn.NewAggregator(gnn.AggMax))
	kh, err := NewKHop(model, g, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := kh.Output().Clone()
	if err := kh.Update(graph.Delta{{U: 1, V: 1, Insert: true}}); err == nil {
		t.Fatal("invalid delta accepted")
	}
	if !kh.Output().Equal(before) {
		t.Error("failed update mutated output")
	}
}

func TestFusedMatchesInferAndOOMs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 120)
	x := tensor.RandMatrix(rng, 40, 5, 1)
	for _, model := range []*gnn.Model{
		gnn.NewGCN(rng, 5, 8, gnn.NewAggregator(gnn.AggMax)),
		gnn.NewSAGE(rng, 5, 8, gnn.NewAggregator(gnn.AggMean)),
		gnn.NewGIN(rng, 5, 8, 3, gnn.NewAggregator(gnn.AggSum)),
	} {
		f := &Fused{Model: model}
		got, err := f.Infer(g, x)
		if err != nil {
			t.Fatalf("%s: %v", model.Name, err)
		}
		want, err := gnn.Infer(model, g, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(want.Output(), 1e-5) {
			t.Errorf("%s: fused output diverged (max diff %g)", model.Name, got.MaxAbsDiff(want.Output()))
		}
		// Reuse of ping-pong buffers across calls stays correct.
		got2, err := f.Infer(g, x)
		if err != nil {
			t.Fatal(err)
		}
		if !got2.Equal(got) {
			t.Errorf("%s: second fused run differs", model.Name)
		}
	}
	// OOM gate.
	model := gnn.NewGIN(rng, 5, 8, 5, gnn.NewAggregator(gnn.AggMax))
	f := &Fused{Model: model, MemLimit: 1024}
	if _, err := f.Infer(g, x); !errors.Is(err, ErrOOM) {
		t.Errorf("expected ErrOOM, got %v", err)
	}
	if ws := f.WorkingSetBytes(g.NumNodes(), g.NumArcs()); ws <= 0 {
		t.Error("WorkingSetBytes must be positive")
	}
}

// Deeper models must report larger working sets (the reason Graphiler OOMs
// on GIN first).
func TestFusedWorkingSetGrowsWithDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	shallow := &Fused{Model: gnn.NewGIN(rng, 16, 16, 2, gnn.NewAggregator(gnn.AggMax))}
	deep := &Fused{Model: gnn.NewGIN(rng, 16, 16, 5, gnn.NewAggregator(gnn.AggMax))}
	if deep.WorkingSetBytes(1000, 5000) <= shallow.WorkingSetBytes(1000, 5000) {
		t.Error("working set must grow with depth")
	}
}

// TestKHopRecordsObserver: the baseline feeds the same observer latency
// histogram as the engine, so served comparisons are like-for-like.
func TestKHopRecordsObserver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 40, 120)
	x := tensor.RandMatrix(rng, 40, 5, 1)
	model := gnn.NewGCN(rng, 5, 8, gnn.NewAggregator(gnn.AggMax))
	kh, err := NewKHop(model, g, x, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	kh.Obs = obs.NewObserver()
	delta := graph.RandomDelta(rng, g, 3)
	if err := kh.Update(delta); err != nil {
		t.Fatal(err)
	}
	if kh.Obs.Updates() != 1 {
		t.Fatalf("observer recorded %d updates", kh.Obs.Updates())
	}
	if s := kh.Obs.UpdateLatency.Snapshot(); s.Count != 1 || s.Max <= 0 {
		t.Errorf("latency histogram %+v", s)
	}
}
