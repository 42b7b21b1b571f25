package inkstream

import (
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// FuzzEngineEquivalence drives the engine with fuzzer-chosen graph shapes,
// models, aggregators, option sets and batch sizes, always asserting
// equivalence with full recomputation.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4), uint8(0))
	f.Add(int64(2), uint8(1), uint8(2), uint8(10), uint8(1))
	f.Add(int64(3), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(int64(4), uint8(2), uint8(3), uint8(20), uint8(3))

	f.Fuzz(func(t *testing.T, seed int64, modelPick, kindPick, deltaSize, optPick uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(40)
		g := randomGraph(rng, n, 2*n)
		x := tensor.RandMatrix(rng, n, 4, 1)
		kind := allKinds[int(kindPick)%len(allKinds)]
		model := buildModel(rng, allModels[int(modelPick)%len(allModels)], 4, kind)
		opts := []Options{
			{},
			{DisablePruning: true},
			{DisableGrouping: true},
			{DisablePruning: true, DisableGrouping: true},
		}[int(optPick)%4]
		e, err := New(model, g, x, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		ds := 1 + int(deltaSize)%12
		if ds > g.NumEdges()/2 {
			ds = g.NumEdges() / 2
		}
		if ds == 0 {
			return
		}
		// Mix a vertex-feature update into the batch so the fuzzer also
		// covers the Sec. II-F path.
		node := graph.NodeID(rng.Intn(n))
		feat := tensor.RandVector(rng, 4, 1)
		if err := e.Apply(graph.RandomDelta(rng, e.Graph(), ds),
			[]VertexUpdate{{Node: node, X: feat}}); err != nil {
			t.Fatal(err)
		}
		x2 := x.Clone()
		x2.SetRow(int(node), feat)
		want, err := gnn.Infer(model, e.Graph(), x2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kind == gnn.AggMax || kind == gnn.AggMin {
			if !e.State().Equal(want) {
				t.Fatalf("monotonic state diverged (seed=%d model=%d kind=%v opts=%+v)",
					seed, modelPick, kind, opts)
			}
		} else if !e.State().ApproxEqual(want, 5e-3) {
			t.Fatalf("accumulative state diverged (seed=%d)", seed)
		}
	})
}
