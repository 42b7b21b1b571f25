package inkstream

import (
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// randomGraph builds a connected-ish random undirected graph.
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

func buildModel(rng *rand.Rand, name string, featLen int, kind gnn.AggKind) *gnn.Model {
	switch name {
	case "GCN":
		return gnn.NewGCN(rng, featLen, 8, gnn.NewAggregator(kind))
	case "SAGE":
		return gnn.NewSAGE(rng, featLen, 8, gnn.NewAggregator(kind))
	case "GIN":
		return gnn.NewGIN(rng, featLen, 8, 3, gnn.NewAggregator(kind))
	}
	panic("unknown model " + name)
}

var allModels = []string{"GCN", "SAGE", "GIN"}
var allKinds = []gnn.AggKind{gnn.AggMax, gnn.AggMin, gnn.AggMean, gnn.AggSum}

// checkEquivalence applies delta via the engine and compares every cached
// checkpoint against a from-scratch full inference on the updated graph.
// Monotonic aggregators must match bit-for-bit; accumulative within fp
// tolerance.
func checkEquivalence(t *testing.T, e *Engine, x *tensor.Matrix, kind gnn.AggKind, label string) {
	t.Helper()
	want, err := gnn.Infer(e.Model(), e.Graph(), x, nil)
	if err != nil {
		t.Fatalf("%s: reference inference: %v", label, err)
	}
	monotonic := kind == gnn.AggMax || kind == gnn.AggMin
	if monotonic {
		if !e.State().Equal(want) {
			diff := e.State().Output().MaxAbsDiff(want.Output())
			t.Fatalf("%s: monotonic state not bit-identical (output max diff %g)", label, diff)
		}
	} else {
		if !e.State().ApproxEqual(want, 2e-3) {
			diff := e.State().Output().MaxAbsDiff(want.Output())
			t.Fatalf("%s: accumulative state diverged (output max diff %g)", label, diff)
		}
	}
}

// The headline correctness property: for every model × aggregator, a batch
// of random edge changes incrementally applied equals full recomputation.
func TestUpdateEquivalenceAllModelsAllAggregators(t *testing.T) {
	for _, mname := range allModels {
		for _, kind := range allKinds {
			mname, kind := mname, kind
			t.Run(mname+"/"+kind.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				g := randomGraph(rng, 60, 180)
				x := tensor.RandMatrix(rng, 60, 6, 1)
				model := buildModel(rng, mname, 6, kind)
				e, err := New(model, g, x, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for batch := 0; batch < 3; batch++ {
					delta := graph.RandomDelta(rng, e.Graph(), 12)
					if err := e.Update(delta); err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					checkEquivalence(t, e, x, kind, mname+"/"+kind.String())
				}
			})
		}
	}
}

// Pure-insertion and pure-deletion batches exercise the Add-only and
// Del-only grouping paths.
func TestUpdateInsertOnlyDeleteOnly(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := randomGraph(rng, 40, 120)
			x := tensor.RandMatrix(rng, 40, 5, 1)
			model := buildModel(rng, "GCN", 5, kind)
			e, err := New(model, g, x, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Deletions only.
			var dels graph.Delta
			for _, ed := range e.Graph().Edges()[:16] {
				if ed[0] < ed[1] && len(dels) < 6 {
					dels = append(dels, graph.EdgeChange{U: ed[0], V: ed[1], Insert: false})
				}
			}
			if err := e.Update(dels); err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, e, x, kind, "delete-only")
			// Insertions only: re-insert the removed edges.
			var ins graph.Delta
			for _, c := range dels {
				ins = append(ins, graph.EdgeChange{U: c.U, V: c.V, Insert: true})
			}
			if err := e.Update(ins); err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, e, x, kind, "insert-only")
		})
	}
}

// Deleting every edge of a node forces the all-channels-reset recompute
// over an empty neighborhood.
func TestUpdateIsolateNode(t *testing.T) {
	for _, kind := range allKinds {
		rng := rand.New(rand.NewSource(9))
		g := graph.NewUndirected(5)
		for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		x := tensor.RandMatrix(rng, 5, 4, 1)
		model := buildModel(rng, "GCN", 4, kind)
		e, err := New(model, g, x, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		delta := graph.Delta{
			{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, // all of node 0's edges
		}
		if err := e.Update(delta); err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, e, x, kind, "isolate/"+kind.String())
		if !e.State().Alpha[0].Row(0).Equal(tensor.NewVector(model.Layers[0].MsgDim())) {
			t.Errorf("%v: isolated node alpha not zero: %v", kind, e.State().Alpha[0].Row(0))
		}
	}
}

// Both ablation options, and one worker, must preserve correctness — they
// trade work, not results.
func TestUpdateOptionsPreserveResults(t *testing.T) {
	opts := map[string]Options{
		"no-pruning":  {DisablePruning: true},
		"no-grouping": {DisableGrouping: true},
		"sequential":  {},
		"all-off":     {DisablePruning: true, DisableGrouping: true},
	}
	for name, opt := range opts {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
			name, opt, kind := name, opt, kind
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				if name == "sequential" {
					setWorkers(t, 1)
				}
				rng := rand.New(rand.NewSource(11))
				g := randomGraph(rng, 50, 150)
				x := tensor.RandMatrix(rng, 50, 5, 1)
				model := buildModel(rng, "SAGE", 5, kind)
				e, err := New(model, g, x, nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				delta := graph.RandomDelta(rng, e.Graph(), 10)
				if err := e.Update(delta); err != nil {
					t.Fatal(err)
				}
				checkEquivalence(t, e, x, kind, name)
			})
		}
	}
}

func TestUpdateRejectsInvalidDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 20, 40)
	x := tensor.RandMatrix(rng, 20, 4, 1)
	model := buildModel(rng, "GCN", 4, gnn.AggMax)
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.State().Clone()
	edges := g.NumEdges()
	bad := graph.Delta{{U: 0, V: 0, Insert: true}}
	if err := e.Update(bad); err == nil {
		t.Fatal("self-loop delta accepted")
	}
	if e.Graph().NumEdges() != edges || !e.State().Equal(before) {
		t.Error("failed update mutated state")
	}
}

func TestEngineRejectsExactNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGraph(rng, 10, 20)
	x := tensor.RandMatrix(rng, 10, 4, 1)
	model := gnn.NewGCN(rng, 4, 4, gnn.NewAggregator(gnn.AggMean))
	model.Norms = []*gnn.GraphNorm{gnn.NewGraphNorm(4), nil}
	if _, err := New(model, g, x, nil, Options{}); err == nil {
		t.Fatal("exact-mode norm must be rejected")
	}
	// Frozen norm is accepted and stays equivalent.
	s, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	model.Norms[0].Freeze(s.H[1])
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	delta := graph.RandomDelta(rng, e.Graph(), 4)
	if err := e.Update(delta); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, e, x, gnn.AggMean, "frozen-norm")
}

func TestNewFromStateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomGraph(rng, 10, 20)
	model := buildModel(rng, "GCN", 4, gnn.AggMax)
	// Node-count mismatch.
	st := gnn.NewState(model, 9)
	if _, err := NewFromState(model, g, st, nil, Options{}); err == nil {
		t.Error("node count mismatch accepted")
	}
}

func TestVertexUpdateEquivalence(t *testing.T) {
	for _, mname := range allModels {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
			rng := rand.New(rand.NewSource(17))
			g := randomGraph(rng, 40, 120)
			x := tensor.RandMatrix(rng, 40, 5, 1)
			model := buildModel(rng, mname, 5, kind)
			e, err := New(model, g, x, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ups := []VertexUpdate{
				{Node: 3, X: tensor.RandVector(rng, 5, 1)},
				{Node: 17, X: tensor.RandVector(rng, 5, 1)},
			}
			if err := e.UpdateVertices(ups); err != nil {
				t.Fatal(err)
			}
			// Reference inference over the updated features.
			x2 := x.Clone()
			x2.SetRow(3, ups[0].X)
			x2.SetRow(17, ups[1].X)
			checkEquivalence(t, e, x2, kind, mname+"/vertex/"+kind.String())
		}
	}
}

func TestCombinedEdgeAndVertexBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomGraph(rng, 30, 90)
	x := tensor.RandMatrix(rng, 30, 4, 1)
	model := buildModel(rng, "SAGE", 4, gnn.AggMax)
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	delta := graph.RandomDelta(rng, e.Graph(), 6)
	ups := []VertexUpdate{{Node: 5, X: tensor.RandVector(rng, 4, 1)}}
	if err := e.Apply(delta, ups); err != nil {
		t.Fatal(err)
	}
	x2 := x.Clone()
	x2.SetRow(5, ups[0].X)
	checkEquivalence(t, e, x2, gnn.AggMax, "combined")
}

func TestVertexUpdateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 10, 20)
	x := tensor.RandMatrix(rng, 10, 4, 1)
	e, err := New(buildModel(rng, "GCN", 4, gnn.AggMax), g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]VertexUpdate{
		"bad-node":  {{Node: 99, X: tensor.NewVector(4)}},
		"bad-dim":   {{Node: 1, X: tensor.NewVector(3)}},
		"duplicate": {{Node: 1, X: tensor.NewVector(4)}, {Node: 1, X: tensor.NewVector(4)}},
	}
	for name, ups := range cases {
		if err := e.UpdateVertices(ups); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAddNodeThenConnect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 20, 50)
	x := tensor.RandMatrix(rng, 20, 4, 1)
	model := buildModel(rng, "GIN", 4, gnn.AggMax)
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feat := tensor.RandVector(rng, 4, 1)
	id, err := e.AddNode(feat)
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != 20 || e.Graph().NumNodes() != 21 || e.State().NumNodes() != 21 {
		t.Fatalf("AddNode bookkeeping: id=%d nodes=%d state=%d", id, e.Graph().NumNodes(), e.State().NumNodes())
	}
	if _, err := e.AddNode(tensor.NewVector(3)); err == nil {
		t.Error("wrong feature dim accepted")
	}
	// Connect the new node and verify equivalence.
	delta := graph.Delta{{U: id, V: 2, Insert: true}, {U: id, V: 7, Insert: true}}
	if err := e.Update(delta); err != nil {
		t.Fatal(err)
	}
	x2 := tensor.NewMatrix(21, 4)
	copy(x2.Data[:len(x.Data)], x.Data)
	x2.SetRow(20, feat)
	checkEquivalence(t, e, x2, gnn.AggMax, "add-node")
}

func TestStatsAndCountersPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	g := randomGraph(rng, 60, 200)
	x := tensor.RandMatrix(rng, 60, 5, 1)
	var c metrics.Counters
	e, err := New(buildModel(rng, "GCN", 5, gnn.AggMax), g, x, &c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update(graph.RandomDelta(rng, e.Graph(), 10)); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Total() == 0 {
		t.Error("no condition stats recorded")
	}
	snap := c.Snapshot()
	if snap.EventsProcessed == 0 || snap.NodesVisited == 0 || snap.BytesFetched == 0 {
		t.Errorf("counters empty: %v", snap)
	}
	e.ResetStats()
	if e.Stats().Total() != 0 {
		t.Error("ResetStats failed")
	}
}

// TestPooledCountsMatchSequential checks that on the pooled route every
// processRange chunk counts into its own tally and flushes it once when it
// ends; a tally dropped, held over or flushed twice at a chunk boundary
// would make the counters differ from the one-worker route's, which charges
// the same formulas for the same targets, or from the visits the condition
// statistics count, which are merged per target outside the tallies. The
// batch is large enough that layer 0 splits into several processTarget
// chunks at two workers, and the per-layer trace, which reads the counters
// around each layer, must still add up to the whole batch.
func TestPooledCountsMatchSequential(t *testing.T) {
	setWorkers(t, 2)
	const n, feat = 600, 6
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			g := randomGraph(rng, n, 6*n)
			x := tensor.RandMatrix(rng, n, feat, 1)
			delta := graph.RandomDelta(rng, g, 400)
			run := func(opts Options) (metrics.Snapshot, ConditionStats, *Engine) {
				var c metrics.Counters
				model := buildModel(rand.New(rand.NewSource(9)), "SAGE", feat, kind)
				e, err := New(model, g.Clone(), x, &c, opts)
				if err != nil {
					t.Fatal(err)
				}
				e.SetObserver(obs.NewObserver())
				before := c.Snapshot()
				if err := e.Update(append(graph.Delta(nil), delta...)); err != nil {
					t.Fatal(err)
				}
				return c.Snapshot().Sub(before), *e.Stats(), e
			}
			got, gotStats, e := run(Options{})
			setWorkers(t, 1)
			want, wantStats, seq := run(Options{})

			tr := e.Trace()
			chunk := tensor.MinChunkWork / (4 * e.Model().Layers[0].MsgDim())
			if nodes := tr.Layers[0].Nodes; nodes < int64(2*chunk) {
				t.Fatalf("layer 0 processed %d targets, want ≥ %d for two chunks", nodes, 2*chunk)
			}
			if got != want {
				t.Errorf("pooled counters %+v, sequential %+v", got, want)
			}
			if got.NodesVisited != gotStats.Total() {
				t.Errorf("counters visited %d targets, conditions count %d", got.NodesVisited, gotStats.Total())
			}
			if gotStats != wantStats {
				t.Errorf("pooled conditions %v, sequential %v", gotStats.Counts, wantStats.Counts)
			}
			var traced int64
			for _, span := range tr.Layers {
				traced += span.BytesFetched
			}
			if traced != got.BytesFetched {
				t.Errorf("trace layers fetched %d bytes, counters %d", traced, got.BytesFetched)
			}
			if !e.State().Equal(seq.State()) {
				t.Error("pooled and sequential engines disagree")
			}
		})
	}
}

// Monotonic pruning must visit no more nodes than the ablated engine, and
// both must agree with recomputation.
func TestPruningReducesVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := randomGraph(rng, 200, 800)
	x := tensor.RandMatrix(rng, 200, 6, 1)
	delta := graph.RandomDelta(rng, g, 10)

	run := func(opts Options) (int64, *Engine) {
		rng2 := rand.New(rand.NewSource(99))
		model := buildModel(rng2, "GCN", 6, gnn.AggMax)
		var c metrics.Counters
		e, err := New(model, g.Clone(), x, &c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Update(append(graph.Delta(nil), delta...)); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot().NodesVisited, e
	}
	pruned, ep := run(Options{})
	unpruned, eu := run(Options{DisablePruning: true})
	if pruned > unpruned {
		t.Errorf("pruning increased visits: %d > %d", pruned, unpruned)
	}
	if !ep.State().Equal(eu.State()) {
		t.Error("pruned and unpruned engines disagree")
	}
}

// The engine is deterministic for a fixed seed and option set.
func TestUpdateDeterministic(t *testing.T) {
	build := func() *Engine {
		rng := rand.New(rand.NewSource(31))
		g := randomGraph(rng, 50, 150)
		x := tensor.RandMatrix(rng, 50, 5, 1)
		e, err := New(buildModel(rng, "SAGE", 5, gnn.AggMax), g, x, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Update(graph.RandomDelta(rand.New(rand.NewSource(5)), e.Graph(), 10)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := build(), build()
	if !a.State().Equal(b.State()) {
		t.Error("engine not deterministic")
	}
}
