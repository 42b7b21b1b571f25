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
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// layouts are the two message layouts an engine can keep, for tests that
// hold both to the same definitions.
var layouts = []struct {
	name   string
	layout int
}{{"rows", layoutRows}, {"columns", layoutColumns}}

// setLayout forces the message layout of the engines one test builds.
func setLayout(t testing.TB, layout int) {
	old := msgLayout
	msgLayout = layout
	t.Cleanup(func() { msgLayout = old })
}

// eachLayout runs check once per message layout, as a subtest of each.
func eachLayout(t *testing.T, check func(t *testing.T)) {
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			setLayout(t, lay.layout)
			check(t)
		})
	}
}

// checkColumns demands that the engine's message copy is M transposed, bit
// for bit, on every monotonic layer, and that no other layer has one.
func checkColumns(t *testing.T, e *Engine, what string) {
	t.Helper()
	if e.cols.data == nil {
		t.Fatalf("%s: the engine keeps no message copy", what)
	}
	s := e.cols.stride
	for l, layer := range e.model.Layers {
		col, m := e.cols.data[l], e.state.M[l]
		if !layer.Agg().Monotonic() {
			if col != nil {
				t.Fatalf("%s: layer %d (%s) keeps a message copy", what, l, layer.Agg().Kind())
			}
			continue
		}
		if s < m.Rows || len(col) != m.Cols*s {
			t.Fatalf("%s: layer %d copy of %d floats at stride %d for %d×%d messages", what, l, len(col), s, m.Rows, m.Cols)
		}
		for v := 0; v < m.Rows; v++ {
			for i, x := range m.Row(v) {
				if got := col[i*s+v]; math.Float32bits(got) != math.Float32bits(x) {
					t.Fatalf("%s: layer %d node %d channel %d: copy holds %v, M holds %v", what, l, v, i, got, x)
				}
			}
		}
	}
}

// TestMessageColumnsMatchRows follows the column copy through every site
// that writes a message row — processTarget over edge batches,
// applyVertexUpdates, AddNode past the stride, and, between two shard
// engines, RoundLayer's ghost refresh and SetGhostMessageRow's hydration —
// and demands that it equals M after each. An accumulative layer of the
// same engine keeps no copy, and neither does an engine on a sparse graph
// when the density picks.
func TestMessageColumnsMatchRows(t *testing.T) {
	const n, featLen = 60, 5
	// Every layer of two or more targets splits into chunks across at least
	// two workers, which write the copy of their own targets side by side.
	setWorkers(t, max(2, runtime.GOMAXPROCS(0)))
	setChunkMin(t, 1)

	t.Run("density", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		model := buildModel(rng, "GCN", featLen, gnn.AggMax)
		x := tensor.RandMatrix(rng, n, featLen, 1)
		sparse, err := New(model, randomGraph(rng, n, 150), x, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sparse.cols.data != nil {
			t.Fatalf("a graph of mean in-degree %d keeps a message copy", sparse.g.NumArcs()/n)
		}
		// Half of all arcs on 4·denseInDegree nodes.
		nd := 4 * denseInDegree
		dense, err := New(model, randomGraph(rng, nd, denseInDegree*nd), tensor.RandMatrix(rng, nd, featLen, 1), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, dense, fmt.Sprintf("mean in-degree %d", dense.g.NumArcs()/nd))
	})

	t.Run("engine", func(t *testing.T) {
		setLayout(t, layoutColumns)
		rng := rand.New(rand.NewSource(5))
		x := tensor.RandMatrix(rng, n, featLen, 1)
		gcn := buildModel(rng, "GCN", featLen, gnn.AggMax)
		// A max layer under a mean layer: one engine with a copy on one
		// layer only.
		mixed := &gnn.Model{Name: "max-mean", Layers: []gnn.Layer{
			gnn.NewSAGELayer(rng, "l0", featLen, 8, gnn.NewAggregator(gnn.AggMax), gnn.ActReLU),
			gnn.NewSAGELayer(rng, "l1", 8, 8, gnn.NewAggregator(gnn.AggMean), gnn.ActIdentity),
		}}
		for _, model := range []*gnn.Model{gcn, mixed} {
			e, err := New(model, randomGraph(rng, n, 150), x.Clone(), nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			what := model.Name
			checkColumns(t, e, what+" bootstrap")
			for i := 0; i < 6; i++ {
				if err := e.Update(graph.RandomDelta(rng, e.Graph(), 6)); err != nil {
					t.Fatal(err)
				}
				checkColumns(t, e, fmt.Sprintf("%s edge batch %d", what, i))
			}
			vups := []VertexUpdate{{Node: 3, X: tensor.RandVector(rng, featLen, 1)}, {Node: 40, X: tensor.RandVector(rng, featLen, 1)}}
			if err := e.UpdateVertices(vups); err != nil {
				t.Fatal(err)
			}
			checkColumns(t, e, what+" vertex updates")
			stride := e.cols.stride
			var added []graph.NodeID
			for len(added) < 3 || e.g.NumNodes() <= stride {
				v, err := e.AddNode(tensor.RandVector(rng, featLen, 1))
				if err != nil {
					t.Fatal(err)
				}
				added = append(added, v)
			}
			if e.cols.stride <= stride {
				t.Fatalf("%s: stride %d after growing to %d nodes", what, e.cols.stride, e.g.NumNodes())
			}
			checkColumns(t, e, what+" AddNode past the stride")
			last := added[len(added)-1]
			delta := graph.Delta{{U: 0, V: last, Insert: true}, {U: last, V: 1, Insert: true}, {U: added[0], V: last, Insert: true}}
			if err := e.Apply(delta, []VertexUpdate{{Node: added[0], X: tensor.RandVector(rng, featLen, 1)}}); err != nil {
				t.Fatal(err)
			}
			checkColumns(t, e, what+" batch after AddNode")
			if err := e.Verify(2e-3); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	})

	t.Run("shards", func(t *testing.T) {
		setLayout(t, layoutColumns)
		rng := rand.New(rand.NewSource(7))
		g := randomGraph(rng, n, 150)
		x := tensor.RandMatrix(rng, n, featLen, 1)
		model := buildModel(rng, "SAGE", featLen, gnn.AggMax)
		boot, err := gnn.Infer(model, g, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		part, err := graph.NewHashPartition(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]*Engine, 2)
		for s := range shards {
			e, err := NewFromState(model, part.ShardGraph(g, s), boot.Clone(), nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetPartitionLocal(part.LocalMask(s)); err != nil {
				t.Fatal(err)
			}
			e.SetRoundTiming(true)
			checkColumns(t, e, fmt.Sprintf("shard %d bootstrap", s))
			shards[s] = e
		}
		mirror := g.Clone()
		for step := 0; step < 4; step++ {
			delta := graph.RandomDelta(rng, mirror, 6)
			if err := delta.Apply(mirror); err != nil {
				t.Fatal(err)
			}
			vups := []VertexUpdate{{Node: graph.NodeID(step), X: tensor.RandVector(rng, featLen, 1)}}
			if ghosts := roundOnShards(t, part, shards, expandDelta(delta), vups); ghosts == 0 {
				t.Fatalf("step %d refreshed no ghost row", step)
			}
			for s, e := range shards {
				checkColumns(t, e, fmt.Sprintf("shard %d after round %d", s, step))
			}
		}
		// Hydration: shard 1 adopts a new row for a vertex of shard 0.
		var remote graph.NodeID
		for part.Owner(remote) != 0 {
			remote++
		}
		for l := range model.Layers {
			if err := shards[1].SetGhostMessageRow(l, remote, tensor.RandVector(rng, model.Layers[l].MsgDim(), 1)); err != nil {
				t.Fatal(err)
			}
		}
		checkColumns(t, shards[1], "shard 1 after hydration")
	})
}

// roundOnShards runs one round over the shard engines the way the router
// does, except that every record is delivered to every shard: each shard
// takes the arcs into its own vertices and the updates of its own vertices,
// and each layer receives the node-sorted records of all shards. It returns
// the ghost rows the round refreshed.
func roundOnShards(t *testing.T, part *graph.Partition, shards []*Engine, arcs graph.Delta, vups []VertexUpdate) int {
	t.Helper()
	var deliv []MessageChange
	for s, e := range shards {
		var sub graph.Delta
		for _, a := range arcs {
			if part.Owner(a.V) == s {
				sub = append(sub, a)
			}
		}
		var subV []VertexUpdate
		for _, up := range vups {
			if part.Owner(up.Node) == s {
				subV = append(subV, up)
			}
		}
		recs, err := e.BeginRound(sub, subV)
		if err != nil {
			t.Fatalf("shard %d BeginRound: %v", s, err)
		}
		deliv = append(deliv, recs...)
	}
	ghosts := 0
	for l := 0; l < shards[0].model.NumLayers(); l++ {
		slices.SortFunc(deliv, func(a, b MessageChange) int { return int(a.Node - b.Node) })
		var next []MessageChange
		for s, e := range shards {
			recs, err := e.RoundLayer(l, deliv)
			if err != nil {
				t.Fatalf("shard %d RoundLayer %d: %v", s, l, err)
			}
			ghosts += e.LastStageStats().GhostRows
			next = append(next, recs...)
		}
		deliv = next
	}
	for s, e := range shards {
		if err := e.FinishRound(); err != nil {
			t.Fatalf("shard %d FinishRound: %v", s, err)
		}
	}
	return ghosts
}

// BenchmarkRebuildChannels times one exposed-reset visit, rows against
// columns: the rebuild of |D| exposed channels of a width-w message, then the
// write of the target's new message row, which the column layout also writes
// into its copy, one store per channel. The graph has 4 096 nodes, and each of
// 256 targets has deg in-neighbours drawn at random; each iteration visits the
// next target, so the scans walk the whole message matrix as a server's do.
// Where the column layout starts to win in deg sets denseInDegree.
func BenchmarkRebuildChannels(b *testing.B) {
	const n, targets = 4096, 256
	for _, w := range []int{32, 256} {
		rng := rand.New(rand.NewSource(int64(w)))
		m := tensor.RandMatrix(rng, n, w, 1)
		// The messages the visits write: each target's own, so the values
		// the scans select from never drift.
		msgs := make([]tensor.Vector, targets)
		for u := range msgs {
			msgs[u] = m.Row(u).Clone()
		}
		for _, deg := range []int{4, 8, 16, 32, 64, 128, 318} {
			g := graph.New(n)
			for u := 0; u < targets; u++ {
				for _, v := range rng.Perm(n)[:deg] {
					if v != u {
						if err := g.AddEdge(graph.NodeID(v), graph.NodeID(u)); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			cols := msgCols{data: [][]float32{make([]float32, w*colStride(n))}, stride: colStride(n)}
			for v := 0; v < n; v++ {
				cols.set(0, graph.NodeID(v), m.Row(v))
			}
			for _, nd := range []int{1, 4, 11} {
				D := make([]int32, nd)
				for k, i := range rng.Perm(w)[:nd] {
					D[k] = int32(i)
				}
				slices.Sort(D)
				dst := tensor.NewVector(w)
				for _, lay := range []struct {
					name string
					cols msgCols
				}{{"rows", msgCols{}}, {"columns", cols}} {
					e := &Engine{g: g, state: &gnn.State{M: []*tensor.Matrix{m}}, cols: lay.cols}
					b.Run(fmt.Sprintf("w=%d/deg=%d/D=%d/%s", w, deg, nd, lay.name), func(b *testing.B) {
						var tally metrics.Tally
						for i := 0; i < b.N; i++ {
							u := i % targets
							e.rebuildChannels(0, graph.NodeID(u), true, D, dst, &tally)
							copy(m.Row(u), msgs[u])
							e.cols.set(0, graph.NodeID(u), msgs[u])
						}
					})
				}
			}
		}
	}
}
