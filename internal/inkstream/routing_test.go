package inkstream

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// bruteApply is the definition record-driven routing has to reproduce, written
// from the receiving side: it applies one batch to g and st (both mutated to
// the post-batch state) by visiting every target of every layer and folding,
// for that target alone, what the documented arrival order delivers — the
// changed-edge events in ΔG order, then every changed message whose source
// has a post-batch arc to the target that this batch did not insert (the
// inserted arc's changed-edge event already carried the new message), in
// record order: batch order for the feature rewrites feeding layer 0, node
// order after that. Accumulative layers fold the float32 running sum in that
// order, so a matching state is a matching fold order bit for bit; monotonic
// layers take the aggregate of the post-batch neighborhood, which is what any
// arrival order must select.
func bruteApply(t *testing.T, model *gnn.Model, g *graph.Graph, st *gnn.State, delta graph.Delta, vups []VertexUpdate) {
	t.Helper()
	type arc struct {
		src, dst graph.NodeID
		ins      bool
	}
	type change struct {
		node     graph.NodeID
		old, new tensor.Vector
	}
	var arcs []arc
	inserted := map[[2]graph.NodeID]bool{}
	degDelta := map[graph.NodeID]int{}
	for _, ch := range delta {
		arcs = append(arcs, arc{ch.U, ch.V, ch.Insert})
		if g.Undirected {
			arcs = append(arcs, arc{ch.V, ch.U, ch.Insert})
		}
	}
	for _, a := range arcs {
		if a.ins {
			inserted[[2]graph.NodeID{a.src, a.dst}] = true
			degDelta[a.dst]++
		} else {
			degDelta[a.dst]--
		}
	}
	pre := st.Clone()
	if err := delta.Apply(g); err != nil {
		t.Fatal(err)
	}

	var recs []change
	for _, up := range vups {
		st.H[0].SetRow(int(up.Node), up.X)
		m := st.M[0].Row(int(up.Node))
		old := m.Clone()
		model.Layers[0].ComputeMessage(m, up.X)
		if !old.Equal(m) {
			recs = append(recs, change{up.Node, old, m})
		}
	}
	for l, layer := range model.Layers {
		agg := layer.Agg()
		dim := layer.MsgDim()
		var next []change
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			native, forced := false, false
			sum := tensor.NewVector(dim)
			for _, a := range arcs {
				if a.dst != v {
					continue
				}
				native = true
				if a.ins {
					tensor.Add(sum, sum, st.M[l].Row(int(a.src)))
				} else {
					neg := tensor.NewVector(dim)
					tensor.Scale(neg, -1, pre.M[l].Row(int(a.src)))
					tensor.Add(sum, sum, neg)
				}
			}
			for _, r := range recs {
				if r.node == v && layer.SelfDependent() {
					forced = true
				}
				if !g.HasEdge(r.node, v) || inserted[[2]graph.NodeID{r.node, v}] {
					continue
				}
				native = true
				diff := tensor.NewVector(dim)
				tensor.Sub(diff, r.new, r.old)
				tensor.Add(sum, sum, diff)
			}
			if !native && !forced {
				continue
			}
			alpha := st.Alpha[l].Row(int(v))
			if native {
				switch agg.Kind() {
				case gnn.AggSum:
					for i := range alpha {
						alpha[i] += sum[i]
					}
				case gnn.AggMean:
					d := g.InDegree(v)
					if d == 0 {
						for i := range alpha {
							alpha[i] = 0
						}
					} else {
						inv, scale := 1/float32(d), float32(d-degDelta[v])
						for i := range alpha {
							alpha[i] = (scale*alpha[i] + sum[i]) * inv
						}
					}
				default:
					agg.Identity(alpha)
					for _, u := range g.InNeighbors(v) {
						agg.Merge(alpha, st.M[l].Row(int(u)))
					}
					agg.Finalize(alpha, g.InDegree(v))
				}
			}
			h := st.H[l+1].Row(int(v))
			layer.Update(h, alpha, st.M[l].Row(int(v)))
			if n := model.Norm(l); n != nil {
				n.ApplyRow(h)
			}
			if l+1 == model.NumLayers() {
				continue
			}
			m := st.M[l+1].Row(int(v))
			old := m.Clone()
			model.Layers[l+1].ComputeMessage(m, h)
			if !old.Equal(m) {
				next = append(next, change{v, old, m})
			}
		}
		recs = next
	}
}

// routingFixture is a directed graph with one hub (node 0, an arc to every
// other node, so one record of a rewrite of its features routes 699 arcs)
// over a sparse random background, and the four batches of
// TestRecordRoutingMatchesDefinition.
func routingFixture(t *testing.T, rng *rand.Rand) (*graph.Graph, [4]graph.Delta, [4][]graph.NodeID) {
	t.Helper()
	const n = 700
	g := graph.New(n)
	add := func(u, v graph.NodeID) {
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for v := graph.NodeID(1); v < n; v++ {
		add(0, v)
	}
	for g.NumEdges() < 4*n {
		u, v := graph.NodeID(1+rng.Intn(n-1)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			add(u, v)
		}
	}
	absent := func(u graph.NodeID) graph.NodeID {
		for {
			if v := graph.NodeID(1 + rng.Intn(n-1)); v != u && !g.HasEdge(u, v) {
				return v
			}
		}
	}
	const a, w, x, b, d = 10, 20, 30, 50, 60
	if g.OutDegree(b) == 0 {
		add(b, absent(b))
	}
	ins := func(u, v graph.NodeID) graph.EdgeChange { return graph.EdgeChange{U: u, V: v, Insert: true} }
	// 150 inserted arcs into distinct targets, picked without rng so the
	// other batches keep their inputs, away from the nodes the first two
	// batches touch.
	var spread graph.Delta
	busy := func(u graph.NodeID) bool { return u == 0 || u == a || u == w || u == x || u == b || u == d }
	for v := graph.NodeID(100); len(spread) < 150; v++ {
		u := 1 + v*37%(n-1)
		if u != v && !busy(u) && !busy(v) && !g.HasEdge(u, v) {
			spread = append(spread, ins(u, v))
		}
	}
	return g, [4]graph.Delta{
			// a changes its layer-0 message (feature rewrite) and gains an
			// out-arc; w changes its layer-1 message (x→w is new) and gains an
			// out-arc: each new neighbor must see the new message exactly once.
			{ins(a, absent(a)), ins(x, w), ins(w, absent(w))},
			// b gets a feature rewrite, loses an out-arc and gains an in-arc.
			{{U: b, V: g.OutNeighbors(b)[0]}, ins(d, b)},
			// Many more targets than the first two batches touched: a
			// monotonic layer outgrows the slabs they left behind.
			spread,
			// The hub's feature rewrite alone.
			nil,
		}, [4][]graph.NodeID{
			{a},
			{b},
			nil,
			{0},
		}
}

// TestRecordRoutingMatchesDefinition pins record-driven propagation to its
// definition (bruteApply) for every model and aggregator kind: after each
// batch every cached checkpoint equals the brute-force per-target fold bit
// for bit — accumulative aggregators included, which is the arrival-order
// claim — and, for max and min, the from-scratch inference. On a monotonic
// layer the third batch must grow the grouper's pair slab mid-routing, so a
// row slice taken before a reallocation would fold into a stale copy. On an accumulative one the dense slab must
// grow with AddNode: the new node then gains an in-arc from the hub in the
// batch that rewrites the hub (an inserted arc its record must skip) and an
// out-arc, and its own rewrite in the next batch folds into the new row.
// A max or min case runs on both message layouts (columns.go). Each case
// runs at three shardMin values, the fewest work units one
// processRange chunk may carry (tensor.MinChunkWork), with at least two
// workers: 1 splits every layer of two or more targets per worker across
// the pool, 512 only the layers with many targets, such as the hub
// rewrite's, and math.MaxInt keeps every layer on one chunk, so the result
// cannot depend on how a layer's groups are shared out.
func TestRecordRoutingMatchesDefinition(t *testing.T) {
	const featLen = 5
	setWorkers(t, max(2, runtime.GOMAXPROCS(0)))
	for _, name := range allModels {
		for _, kind := range allKinds {
			for _, shardMin := range []int{1, 512, math.MaxInt} {
				t.Run(fmt.Sprintf("%s/%s/shardMin=%d", name, kind, shardMin), func(t *testing.T) {
					setChunkMin(t, shardMin)
					check := func(t *testing.T) {
						rng := rand.New(rand.NewSource(11))
						g, deltas, rewrites := routingFixture(t, rng)
						x := tensor.RandMatrix(rng, g.NumNodes(), featLen, 1)
						model := buildModel(rng, name, featLen, kind)
						build := func(opts Options) *Engine {
							e, err := New(model, g.Clone(), x.Clone(), nil, opts)
							if err != nil {
								t.Fatal(err)
							}
							return e
						}
						e := build(Options{})
						mono := model.Layers[0].Agg().Monotonic()
						if shardMin == 512 && g.OutDegree(0) < 2*max(1, shardMin/(4*model.Layers[0].MsgDim())) {
							t.Fatal("the hub rewrite's layer 0 does not split into chunks")
						}
						refG, ref := g.Clone(), e.State().Clone()
						for i, delta := range deltas {
							var vups []VertexUpdate
							for _, u := range rewrites[i] {
								vups = append(vups, VertexUpdate{Node: u, X: tensor.RandVector(rng, featLen, 1)})
							}
							bruteApply(t, model, refG, ref, delta, vups)
							retained := cap(e.gr.slab)
							if err := e.Apply(delta, vups); err != nil {
								t.Fatalf("batch %d: %v", i, err)
							}
							if i == 2 && mono && cap(e.gr.slab) <= retained {
								t.Fatalf("batch %d: pair slab did not grow past its retained %d floats", i, retained)
							}
							if !e.State().Equal(ref) {
								t.Fatalf("batch %d: state differs from the per-target fold (output max diff %g)",
									i, e.Output().MaxAbsDiff(ref.Output()))
							}
						}
						if !mono {
							dim := 0
							for _, layer := range model.Layers {
								dim = max(dim, layer.MsgDim())
							}
							v, err := e.AddNode(tensor.RandVector(rng, featLen, 1))
							if err != nil {
								t.Fatal(err)
							}
							// AddNode's rows are not under test here: the
							// reference adopts them.
							refG, ref = e.Graph().Clone(), e.State().Clone()
							for i, b := range []struct {
								delta graph.Delta
								node  graph.NodeID
							}{
								{graph.Delta{{U: 0, V: v, Insert: true}, {U: v, V: 1, Insert: true}}, 0},
								{nil, v},
							} {
								vups := []VertexUpdate{{Node: b.node, X: tensor.RandVector(rng, featLen, 1)}}
								bruteApply(t, model, refG, ref, b.delta, vups)
								if err := e.Apply(b.delta, vups); err != nil {
									t.Fatalf("batch %d after AddNode: %v", i, err)
								}
								if want := e.Graph().NumNodes() * dim; len(e.gr.dense) != want {
									t.Fatalf("batch %d after AddNode: dense slab of %d floats, want %d", i, len(e.gr.dense), want)
								}
								if !e.State().Equal(ref) {
									t.Fatalf("batch %d after AddNode: state differs from the per-target fold (output max diff %g)",
										i, e.Output().MaxAbsDiff(ref.Output()))
								}
							}
						}
						want, err := gnn.Infer(model, e.Graph(), e.State().H[0], nil)
						if err != nil {
							t.Fatal(err)
						}
						if mono && !e.State().Equal(want) {
							t.Fatal("state differs from full inference")
						}
						if !e.State().ApproxEqual(want, 2e-3) {
							t.Fatalf("state drifted from full inference (output max diff %g)", e.Output().MaxAbsDiff(want.Output()))
						}
					}
					if !gnn.NewAggregator(kind).Monotonic() {
						check(t)
						return
					}
					eachLayout(t, check)
				})
			}
		}
	}
}

// setChunkMin sets tensor.MinChunkWork, the fewest work units one chunk of a
// parallel region may carry, for one test.
func setChunkMin(t *testing.T, units int) {
	t.Helper()
	old := tensor.MinChunkWork
	tensor.MinChunkWork = units
	t.Cleanup(func() { tensor.MinChunkWork = old })
}

// heapMetric reads one runtime/metrics byte counter.
func heapMetric(name string) uint64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestHubRewriteRetainsNoPerArcMemory: propagation carries one record per
// changed source, so a hub feature rewrite on a dense graph (every in-degree
// 256) must neither leave behind nor, once the engine's scratch is sized,
// allocate anything proportional to the arcs it routes — the parent built a
// 40-byte event per arc and kept it in three buffers. The live heap the first
// rewrite adds and the bytes a repeated rewrite allocates are both held to a
// fraction of one event per arc, and the repeated rewrite to fewer
// allocations than records.
func TestHubRewriteRetainsNoPerArcMemory(t *testing.T) {
	const n, deg, featLen = 600, 256, 8
	rng := rand.New(rand.NewSource(3))
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for k := 1; k <= deg; k++ {
			if err := g.AddEdge(graph.NodeID((v+k)%n), graph.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := gnn.NewGCN(rng, featLen, 8, gnn.NewAggregator(gnn.AggMean))
	setWorkers(t, 1)
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vups := [2][]VertexUpdate{
		{{Node: 0, X: tensor.RandVector(rng, featLen, 1)}},
		{{Node: 0, X: x.Row(0).Clone()}},
	}
	i := 0
	apply := func() {
		if err := e.UpdateVertices(vups[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Layer 1 routes one arc per out-arc of every layer-0 target: the hub's
	// 256 out-neighbors × 256. One event per arc would be 40 bytes each.
	const perArcBytes = 40 * deg * deg

	runtime.GC()
	live0 := heapMetric("/gc/heap/live:bytes")
	visits0 := e.Stats().Total()
	apply()
	runtime.GC()
	if retained := int64(heapMetric("/gc/heap/live:bytes")) - int64(live0); retained > perArcBytes/4 {
		t.Errorf("the first hub rewrite retains %d bytes; an event per arc is %d", retained, perArcBytes)
	}
	records := int(e.Stats().Total() - visits0) // every visited node emits at most one record
	if records < deg || records > 2*n {
		t.Fatalf("%d visits for a hub rewrite over %d nodes", records, n)
	}

	apply() // both directions have now sized the scratch
	const runs = 10
	bytes0 := heapMetric("/gc/heap/allocs:bytes")
	allocs := testing.AllocsPerRun(runs, apply) // one warm-up call, then runs
	bytesPerRun := (heapMetric("/gc/heap/allocs:bytes") - bytes0) / (runs + 1)
	if allocs > float64(records)/2 {
		t.Errorf("%.0f allocations per repeated rewrite of %d records", allocs, records)
	}
	if bytesPerRun > perArcBytes/8 {
		t.Errorf("%d bytes allocated per repeated rewrite; an event per arc is %d", bytesPerRun, perArcBytes)
	}
}

// TestInsertedAtFindsPositions: the duplicate-event cut-out finds exactly
// the adjacency positions of a source's inserted arcs, ascending, appended
// after what the buffer already holds — for runs of 0 to 20 arcs, inserted
// after 30 older arcs, with 0 to 3 of the older ones then removed, which
// swaps the tail's inserted arcs forward into their holes.
func TestInsertedAtFindsPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const u = 7
	for size := 0; size <= 20; size++ {
		for removed := 0; removed <= 3; removed++ {
			g := graph.New(80)
			targets := rng.Perm(80)
			var old, run [][2]graph.NodeID
			for _, v := range targets {
				if v == u {
					continue
				}
				arc := [2]graph.NodeID{u, graph.NodeID(v)}
				if len(old) < 30 {
					old = append(old, arc)
				} else if len(run) < size {
					run = append(run, arc)
				}
			}
			for _, a := range append(old, run...) {
				if err := g.AddEdge(a[0], a[1]); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range rng.Perm(len(old))[:removed] {
				if err := g.RemoveEdge(u, old[k][1]); err != nil {
					t.Fatal(err)
				}
			}
			in := map[graph.NodeID]bool{}
			for _, a := range run {
				in[a[1]] = true
			}
			slices.SortFunc(run, func(a, b [2]graph.NodeID) int { return cmp.Compare(a[1], b[1]) })
			nbrs := g.OutNeighbors(u)
			want := []int32{-1}
			for j, v := range nbrs {
				if in[v] {
					want = append(want, int32(j))
				}
			}
			if got := insertedAt([]int32{-1}, nbrs, run); !slices.Equal(got, want) {
				t.Fatalf("%d arcs inserted, %d removed: positions %v, want %v", size, removed, got[1:], want[1:])
			}
		}
	}
}
