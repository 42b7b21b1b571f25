package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/server"
	"repro/internal/tensor"
)

// deployment is a router behind the server's write pipeline — what
// inkserve -shards builds: Apply, ReadEmbedding, Stats and the HTTP surface
// are the server's, the round machinery is rt's.
type deployment struct {
	*server.Server
	rt *Router
}

func newDeployment(t testing.TB, model *gnn.Model, g *graph.Graph, x *tensor.Matrix, cfg Config) *deployment {
	t.Helper()
	rt, err := New(model, g, x, cfg)
	if err != nil {
		t.Fatalf("%+v deployment: %v", cfg, err)
	}
	d := &deployment{server.NewOn(rt), rt}
	t.Cleanup(d.Close)
	return d
}

// reference is a standalone engine over the same bootstrap — the bit-exact
// reference that shares no line of round protocol with the deployments it
// judges. apply feeds it a batch the way every deployment shape orders one:
// vertex updates sorted by node (Router.split).
type reference struct{ eng *inkstream.Engine }

func newReference(t testing.TB, model *gnn.Model, g *graph.Graph, x *tensor.Matrix) reference {
	t.Helper()
	eng, err := inkstream.New(model, g.Clone(), x.Clone(), nil, inkstream.Options{})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	return reference{eng}
}

func (r reference) apply(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	vups = append([]inkstream.VertexUpdate(nil), vups...)
	sort.Slice(vups, func(i, j int) bool { return vups[i].Node < vups[j].Node })
	return r.eng.Apply(delta, vups)
}

func (r reference) row(v int) tensor.Vector { return r.eng.Output().Row(v) }

func testGraph(rng *rand.Rand, n, edges int) *graph.Graph {
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

func testModel(rng *rand.Rand, name string, featLen int, kind gnn.AggKind) *gnn.Model {
	switch name {
	case "SAGE":
		return gnn.NewSAGE(rng, featLen, 8, gnn.NewAggregator(kind))
	case "GIN":
		return gnn.NewGIN(rng, featLen, 8, 3, gnn.NewAggregator(kind))
	}
	panic("unknown model " + name)
}

// oneWay keeps one arc of each of g's edges, oriented either way: a
// directed graph of g's shape.
func oneWay(g *graph.Graph) *graph.Graph {
	var arcs [][2]graph.NodeID
	for _, e := range g.Edges() {
		if (e[0] < e[1]) == ((e[0]+e[1])%2 == 0) {
			arcs = append(arcs, e)
		}
	}
	d, err := graph.FromPairs(g.NumNodes(), false, arcs)
	if err != nil {
		panic(err)
	}
	return d
}

// faults are the ways a batch is rejected; withFault adds one of them to a
// valid batch over g, at a random place in it.
var faults = []string{
	"insert-existing", "delete-missing", "edge-out-of-range", "self-loop", "edge-twice",
	"vup-out-of-range", "vup-bad-dim", "vup-twice", "both-directions", // the last only on undirected graphs
}

func withFault(rng *rand.Rand, g *graph.Graph, fault string, delta graph.Delta, vups []inkstream.VertexUpdate, featLen int) (graph.Delta, []inkstream.VertexUpdate) {
	n := g.NumNodes()
	// One more valid vertex update, on a node the batch does not update yet,
	// for the vertex-update faults to spoil.
	node := graph.NodeID(rng.Intn(n))
	for slices.ContainsFunc(vups, func(up inkstream.VertexUpdate) bool { return up.Node == node }) {
		node = graph.NodeID(rng.Intn(n))
	}
	vups = append(slices.Clone(vups), inkstream.VertexUpdate{Node: node, X: tensor.RandVector(rng, featLen, 1)})
	var bad graph.EdgeChange
	switch fault {
	case "insert-existing":
		e := g.Edges()[rng.Intn(len(g.Edges()))]
		bad = graph.EdgeChange{U: e[0], V: e[1], Insert: true}
	case "delete-missing":
		for bad.U == bad.V || g.HasEdge(bad.U, bad.V) {
			bad = graph.EdgeChange{U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))}
		}
	case "edge-out-of-range":
		bad = graph.EdgeChange{U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(n + rng.Intn(3)), Insert: true}
	case "self-loop":
		v := graph.NodeID(rng.Intn(n))
		bad = graph.EdgeChange{U: v, V: v, Insert: true}
	case "edge-twice":
		bad = delta[rng.Intn(len(delta))]
	case "both-directions":
		bad = delta[rng.Intn(len(delta))]
		bad.U, bad.V = bad.V, bad.U
	case "vup-out-of-range":
		vups[len(vups)-1].Node = graph.NodeID(n + rng.Intn(3))
		return delta, vups
	case "vup-bad-dim":
		vups[len(vups)-1].X = tensor.RandVector(rng, featLen+1, 1)
		return delta, vups
	case "vup-twice":
		vups = append(vups, inkstream.VertexUpdate{Node: vups[len(vups)-1].Node, X: tensor.RandVector(rng, featLen, 1)})
		return delta, vups
	}
	at := rng.Intn(len(delta) + 1)
	return slices.Insert(slices.Clone(delta), at, bad), vups
}

// TestCrossShardBitExact drives an identical add/delete/feature-update
// stream through a standalone engine, a 1-shard deployment, 2- and 3-shard
// hash deployments and one 4-shard deployment per partition strategy over a
// graph with a nontrivial cut, directed and undirected, and demands
// identical embeddings for every vertex at every published epoch — bitwise,
// for accumulative aggregators included (the §7.5 exactness claim). The
// 1-shard router runs the same round protocol as the deployments it is
// compared with, so the engine is the reference that shares none of it.
// Every step also offers each of them a batch with one fault in it, which
// all must refuse as the engine does, with the same sentinel and no state
// change. The final state is also checked against from-scratch inference
// on a mirror of the stream.
// msgLayout is the inkstream engine's test-only override of its message
// layout: 1 builds every engine with message rows only, 2 with the column
// copy as well (inkstream's columns.go), 0 lets each graph's density pick.
//
//go:linkname msgLayout repro/internal/inkstream.msgLayout
var msgLayout int

func TestCrossShardBitExact(t *testing.T) {
	for _, name := range []string{"SAGE", "GIN"} {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean, gnn.AggSum} {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				for _, undirected := range []bool{true, false} {
					graphKind := "directed"
					if undirected {
						graphKind = "undirected"
					}
					t.Run(graphKind, func(t *testing.T) {
						if kind != gnn.AggMax {
							checkCrossShard(t, name, kind, undirected)
							return
						}
						// A max layer keeps its messages in rows or also in
						// columns, as its graph's density picks (inkstream's
						// columns.go): every shape must be exact on both.
						for _, lay := range []struct {
							name   string
							layout int
						}{{"rows", 1}, {"columns", 2}} {
							t.Run(lay.name, func(t *testing.T) {
								old := msgLayout
								msgLayout = lay.layout
								t.Cleanup(func() { msgLayout = old })
								checkCrossShard(t, name, kind, undirected)
							})
						}
					})
				}
			})
		}
	}
}

func checkCrossShard(t *testing.T, name string, kind gnn.AggKind, undirected bool) {
	rng := rand.New(rand.NewSource(97))
	const n, featLen = 60, 6
	g := testGraph(rng, n, 150)
	if !undirected {
		g = oneWay(g)
	}
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, name, featLen, kind)

	ref := newReference(t, model, g, x)
	r1 := newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 1})
	// The multi-shard deployments — all must match the 1-shard deployment,
	// and that the engine, bitwise at every epoch.
	type named struct {
		name string
		rt   *deployment
	}
	var deps []named
	for _, shards := range []int{2, 3} {
		deps = append(deps, named{fmt.Sprintf("hash/%d", shards), newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: shards})})
	}
	for _, strat := range graph.PartitionStrategies {
		deps = append(deps, named{strat + "/4", newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 4, PartitionStrategy: strat})})
	}
	r4 := deps[2].rt
	for _, d := range deps {
		if d.rt.Stats().CutFraction == 0 {
			t.Fatalf("%s: trivial cut; the test would prove nothing", d.name)
		}
	}
	all := append([]named{{"1-shard", r1}}, deps...)
	sentinels := []error{graph.ErrBadNode, graph.ErrSelfLoop, graph.ErrDuplicateEdge, graph.ErrMissingEdge}

	mirror := g.Clone()
	xCur := x.Clone()
	for step := 0; step < 10; step++ {
		delta := graph.RandomDelta(rng, mirror, 4)
		var vups []inkstream.VertexUpdate
		if step%2 == 1 {
			for _, v := range rng.Perm(n)[:3] {
				vups = append(vups, inkstream.VertexUpdate{
					Node: graph.NodeID(v),
					X:    tensor.RandVector(rng, featLen, 1),
				})
			}
		}

		fault := faults[step%len(faults)]
		if fault == "both-directions" && !undirected {
			fault = faults[0]
		}
		badDelta, badVups := withFault(rng, mirror, fault, delta, vups, featLen)
		want := ref.apply(badDelta, badVups)
		if want == nil {
			t.Fatalf("step %d: the engine accepted a batch with fault %s", step, fault)
		}
		for _, d := range all {
			got := d.rt.Apply(badDelta, badVups)
			if got == nil {
				t.Fatalf("step %d: %s accepted a batch with fault %s the engine refused: %v", step, d.name, fault, want)
			}
			for _, s := range sentinels {
				if errors.Is(got, s) != errors.Is(want, s) {
					t.Fatalf("step %d: %s refused fault %s with %v, the engine with %v", step, d.name, fault, got, want)
				}
			}
		}

		for _, up := range vups {
			copy(xCur.Row(int(up.Node)), up.X)
		}
		if err := ref.apply(delta, vups); err != nil {
			t.Fatalf("step %d: engine apply: %v", step, err)
		}
		for _, d := range all {
			if err := d.rt.Apply(delta, vups); err != nil {
				t.Fatalf("step %d: %s apply: %v", step, d.name, err)
			}
		}
		if err := delta.Apply(mirror); err != nil {
			t.Fatalf("step %d: mirror apply: %v", step, err)
		}
		for v := 0; v < n; v++ {
			row1, e1, ok1 := r1.ReadEmbedding(v)
			if !ok1 {
				t.Fatalf("step %d: node %d unreadable on 1-shard", step, v)
			}
			if !row1.Equal(ref.row(v)) {
				t.Fatalf("step %d: node %d: 1-shard deployment diverged from the standalone engine at epoch %d:\nengine:  %v\n1-shard: %v",
					step, v, e1, ref.row(v), row1)
			}
			for _, d := range deps {
				rowN, eN, okN := d.rt.ReadEmbedding(v)
				if !okN {
					t.Fatalf("step %d: node %d unreadable on %s", step, v, d.name)
				}
				if e1 != eN {
					t.Fatalf("step %d: node %d epochs diverged on %s: %d vs %d", step, v, d.name, e1, eN)
				}
				if !row1.Equal(rowN) {
					t.Fatalf("step %d: node %d embeddings diverged on %s at epoch %d:\n1-shard: %v\n%s: %v",
						step, v, d.name, e1, row1, d.name, rowN)
				}
			}
		}
	}

	// The shared stream also has to mean the right thing: check
	// the 4-shard deployment against from-scratch inference on
	// the mirrored graph and features.
	want, err := gnn.Infer(model, mirror, xCur, nil)
	if err != nil {
		t.Fatal(err)
	}
	monotonic := kind == gnn.AggMax || kind == gnn.AggMin
	for v := 0; v < n; v++ {
		row, _, _ := r4.ReadEmbedding(v)
		ref := want.Output().Row(v)
		if monotonic && !row.Equal(ref) {
			t.Fatalf("node %d: not bit-identical to reference inference", v)
		}
		if !monotonic && !row.ApproxEqual(ref, 2e-3) {
			t.Fatalf("node %d: drifted from reference inference: %v vs %v", v, row, ref)
		}
	}

	st := r4.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats report %d shards / %d slices, want 4", st.Shards, len(st.PerShard))
	}
	if sh := r4.rt.Shape(); sh.MaxEpoch != sh.Epoch {
		t.Fatalf("idle deployment has epoch skew %d", sh.MaxEpoch-sh.Epoch)
	}
	if r4.rt.boundaryRecs.Load() == 0 || st.BoundaryBytes == 0 {
		t.Fatal("multi-shard stream produced no boundary traffic")
	}
	for _, d := range all {
		if st := d.rt.Stats(); st.Edges != mirror.NumEdges() {
			t.Fatalf("%s counts %d edges, mirror has %d", d.name, st.Edges, mirror.NumEdges())
		}
	}
}

// TestRouterConcurrentWriters is the -race stress for router fan-out under
// concurrent conflicting writers: several goroutines toggle edges from one
// shared pool (guaranteed conflicts → stall-sealed rounds), others stream
// feature updates over disjoint vertex sets, and readers poll embeddings
// throughout. Afterwards the deployment must agree bitwise with from-scratch
// inference over the reconstructed graph (each successful toggle flips
// presence, so final presence is initial XOR parity).
func TestRouterConcurrentWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const n, featLen = 40, 5
	g := testGraph(rng, n, 80)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMax)

	rt := newDeployment(t, model, g.Clone(), x.Clone(), Config{Shards: 4})

	// A pool of canonical edges, some initially present, some absent.
	type pooled struct {
		u, v    graph.NodeID
		present bool
		toggles atomic.Int64
	}
	var pool []*pooled
	seen := make(map[[2]graph.NodeID]bool)
	for len(pool) < 16 {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if v < u {
			u, v = v, u
		}
		if seen[[2]graph.NodeID{u, v}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		pool = append(pool, &pooled{u: u, v: v, present: g.HasEdge(u, v)})
	}

	const writers, opsPerWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsPerWriter; op++ {
				p := pool[wrng.Intn(len(pool))]
				// Racing writers mean we cannot know the edge's current
				// presence; try one polarity, fall back to the other. Exactly
				// one can succeed per attempt, and each success is a toggle.
				ins := wrng.Intn(2) == 0
				d := graph.Delta{{U: p.u, V: p.v, Insert: ins}}
				if rt.Apply(d, nil) == nil {
					p.toggles.Add(1)
					continue
				}
				d[0].Insert = !ins
				if rt.Apply(d, nil) == nil {
					p.toggles.Add(1)
				}
			}
		}(int64(1000 + w))
	}

	// Feature writers own disjoint vertex slices; sequential sync applies
	// mean the last submitted value is the final one.
	finalX := x.Clone()
	var fwg sync.WaitGroup
	var fmu sync.Mutex
	for w := 0; w < 2; w++ {
		fwg.Add(1)
		go func(w int) {
			defer fwg.Done()
			frng := rand.New(rand.NewSource(int64(2000 + w)))
			nodes := []graph.NodeID{graph.NodeID(w), graph.NodeID(10 + w), graph.NodeID(20 + w)}
			for op := 0; op < 15; op++ {
				node := nodes[frng.Intn(len(nodes))]
				up := inkstream.VertexUpdate{Node: node, X: tensor.RandVector(frng, featLen, 1)}
				if err := rt.Apply(nil, []inkstream.VertexUpdate{up}); err != nil {
					t.Errorf("feature writer %d: %v", w, err)
					return
				}
				fmu.Lock()
				copy(finalX.Row(int(node)), up.X)
				fmu.Unlock()
			}
		}(w)
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				row, _, ok := rt.ReadEmbedding(rrng.Intn(n))
				if !ok || len(row) == 0 {
					t.Error("reader: bad embedding")
					return
				}
			}
		}(int64(3000 + r))
	}

	wg.Wait()
	fwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}

	expected := g.Clone()
	for _, p := range pool {
		present := p.present != (p.toggles.Load()%2 == 1)
		if present != expected.HasEdge(p.u, p.v) {
			var err error
			if present {
				err = expected.AddEdge(p.u, p.v)
			} else {
				err = expected.RemoveEdge(p.u, p.v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := gnn.Infer(model, expected, finalX, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		row, _, _ := rt.ReadEmbedding(v)
		if !row.Equal(want.Output().Row(v)) {
			t.Fatalf("node %d: post-stress state disagrees with reference inference", v)
		}
	}
	if rt.rt.Corrupt() {
		t.Fatal("deployment marked corrupt after clean stress")
	}
}
