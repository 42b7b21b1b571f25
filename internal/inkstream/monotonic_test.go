package inkstream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// The dense-hub fixture of the channel-granular tests: a directed star whose
// hub (node 0) has hubDeg in-neighbours (nodes 1..hubDeg) and one
// out-neighbour (hubSink, so a changed hub message has somewhere to go), plus
// unconnected spare nodes for insertions. Layer-0 messages equal the features
// (SAGE/GIN by construction, GCN through an identity first layer), and source
// i+1 is the unique witness of channel i: its feature there is ±2 against a
// (−1, 1) background. Small random graphs never build a target like this.
const (
	hubDeg   = 256
	hubDim   = 32
	hubSink  = hubDeg + 1
	hubSpare = hubDeg + 2
	hubLone  = hubDeg + 3
	hubNodes = hubDeg + 4
)

// hubExt is the feature value that wins a channel of the fixture.
func hubExt(kind gnn.AggKind) float32 {
	if kind == gnn.AggMin {
		return -2
	}
	return 2
}

// hubEngine builds the fixture for one model × aggregator; tweak may edit the
// features before the bootstrap inference.
func hubEngine(t *testing.T, modelName string, kind gnn.AggKind, tweak func(x *tensor.Matrix)) (*Engine, *tensor.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	g := graph.New(hubNodes)
	for s := 1; s <= hubDeg; s++ {
		if err := g.AddEdge(graph.NodeID(s), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(0, hubSink); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandMatrix(rng, hubNodes, hubDim, 1)
	for i := 0; i < hubDim; i++ {
		x.Row(i + 1)[i] = hubExt(kind)
	}
	if tweak != nil {
		tweak(x)
	}
	agg := gnn.NewAggregator(kind)
	var model *gnn.Model
	switch modelName {
	case "GCN":
		model = gnn.NewGCN(rng, hubDim, hubDim, agg)
		l0 := model.Layers[0].(*gnn.GCNLayer)
		l0.W = tensor.NewMatrix(hubDim, hubDim)
		for i := 0; i < hubDim; i++ {
			l0.W.Row(i)[i] = 1
		}
		l0.B = tensor.NewVector(hubDim)
	case "SAGE":
		model = gnn.NewSAGE(rng, hubDim, hubDim, agg)
	case "GIN":
		model = gnn.NewGIN(rng, hubDim, hubDim, 3, agg)
	}
	e, err := New(model, g, x, &metrics.Counters{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(obs.NewObserver())
	return e, x
}

// wantHubVisit checks layer 0 of the last Apply: the hub was its only visit,
// classified exposed reset, and the layer fetched the exposed channels of the
// deg post-batch in-neighbours plus O(dim) — not deg whole rows.
func wantHubVisit(t *testing.T, e *Engine, exposed, deg int) {
	t.Helper()
	span := e.Trace().Layers[0]
	if span.Nodes != 1 || span.Cond[CondExposedReset] != 1 {
		t.Fatalf("layer 0 visits: nodes=%d cond=%v, want one exposed reset", span.Nodes, span.Cond)
	}
	scan := int64(4 * exposed * deg)
	if slack := int64(4 * 8 * hubDim * e.Trace().DeltaEdges); span.BytesFetched < scan || span.BytesFetched > scan+slack {
		t.Errorf("layer 0 fetched %d B, want %d B (%d channels × %d neighbours) + at most %d B", span.BytesFetched, scan, exposed, deg, slack)
	}
}

func bits(v tensor.Vector) []uint32 {
	out := make([]uint32, len(v))
	for i, f := range v {
		out[i] = math.Float32bits(f)
	}
	return out
}

func del(u, v int) graph.EdgeChange { return graph.EdgeChange{U: graph.NodeID(u), V: graph.NodeID(v)} }
func ins(u, v int) graph.EdgeChange {
	return graph.EdgeChange{U: graph.NodeID(u), V: graph.NodeID(v), Insert: true}
}

func TestDenseHubChannelGranular(t *testing.T) {
	for _, name := range allModels {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMin} {
			label := fmt.Sprintf("%s-%s", name, kind)

			t.Run(label+"/one-channel-exposed", func(t *testing.T) {
				e, x := hubEngine(t, name, kind, nil)
				if err := e.Update(graph.Delta{del(1, 0)}); err != nil {
					t.Fatal(err)
				}
				wantHubVisit(t, e, 1, hubDeg-1)
				if a := float64(e.State().Alpha[0].Row(0)[0]); math.Abs(a) >= 1 {
					t.Errorf("α[0] = %v after its witness left, want a background value", a)
				}
				checkEquivalence(t, e, x, kind, label)
			})

			t.Run(label+"/tie-survives", func(t *testing.T) {
				// Source 33 is a copy of source 1: every layer ties on it.
				e, x := hubEngine(t, name, kind, func(x *tensor.Matrix) {
					copy(x.Row(33), x.Row(1))
				})
				e.PublishSnapshot()
				before := bits(e.State().Alpha[0].Row(0))
				if err := e.Update(graph.Delta{del(1, 0)}); err != nil {
					t.Fatal(err)
				}
				wantHubVisit(t, e, 1, hubDeg-1)
				if !slices.Equal(bits(e.State().Alpha[0].Row(0)), before) {
					t.Error("α moved although the tied neighbour still holds the extremum")
				}
				for l, span := range e.Trace().Layers {
					if span.EventsOut != 0 {
						t.Errorf("layer %d emitted %d events for an unchanged α", l, span.EventsOut)
					}
				}
				if d := e.DirtyRows(); len(d) != 0 {
					t.Errorf("dirty rows %v, want none", d)
				}
				checkEquivalence(t, e, x, kind, label)
			})

			t.Run(label+"/mixed-channels", func(t *testing.T) {
				// Witnesses of channels 0 and 1 leave; the spare covers
				// channel 0, not channel 1, and improves channel 2, whose
				// witness stays.
				ext := hubExt(kind)
				e, x := hubEngine(t, name, kind, func(x *tensor.Matrix) {
					x.Row(hubSpare)[0] = 1.5 * ext
					x.Row(hubSpare)[2] = 1.5 * ext
				})
				if err := e.Update(graph.Delta{del(1, 0), del(2, 0), ins(hubSpare, 0)}); err != nil {
					t.Fatal(err)
				}
				wantHubVisit(t, e, 1, hubDeg-1)
				alpha := e.State().Alpha[0].Row(0)
				if alpha[0] != 1.5*ext || alpha[2] != 1.5*ext || alpha[3] != ext {
					t.Errorf("α[0,2,3] = %v %v %v, want %v %v %v", alpha[0], alpha[2], alpha[3], 1.5*ext, 1.5*ext, ext)
				}
				if a := float64(alpha[1]); math.Abs(a) >= 1 {
					t.Errorf("α[1] = %v, want a background value", a)
				}
				checkEquivalence(t, e, x, kind, label)
			})

			t.Run(label+"/all-channels-exposed", func(t *testing.T) {
				e, x := hubEngine(t, name, kind, nil)
				var delta graph.Delta
				for s := 1; s <= hubDim; s++ {
					delta = append(delta, del(s, 0))
				}
				if err := e.Update(delta); err != nil {
					t.Fatal(err)
				}
				wantHubVisit(t, e, hubDim, hubDeg-hubDim)
				whole := tensor.NewVector(hubDim)
				e.recomputeAlpha(0, 0, whole, &metrics.Tally{})
				if !slices.Equal(bits(e.State().Alpha[0].Row(0)), bits(whole)) {
					t.Error("|D| = dim differs from the whole-row recompute")
				}
				checkEquivalence(t, e, x, kind, label)
			})

			t.Run(label+"/degree-to-zero-and-back", func(t *testing.T) {
				e, x := hubEngine(t, name, kind, nil)
				var delta graph.Delta
				for s := 1; s <= hubDeg; s++ {
					delta = append(delta, del(s, 0))
				}
				if err := e.Update(delta); err != nil {
					t.Fatal(err)
				}
				if e.Trace().Layers[0].Cond[CondExposedReset] != 1 {
					t.Errorf("layer 0 cond %v, want an exposed reset", e.Trace().Layers[0].Cond)
				}
				if alpha := e.State().Alpha[0].Row(0); !alpha.Equal(tensor.NewVector(hubDim)) {
					t.Errorf("α of an emptied neighbourhood = %v, want the zero row", alpha)
				}
				checkEquivalence(t, e, x, kind, label+" emptied")
				// First edges of isolated nodes: the emptied hub and a node
				// that never had one.
				if err := e.Update(graph.Delta{ins(5, 0), ins(6, hubLone)}); err != nil {
					t.Fatal(err)
				}
				if n := e.Trace().Layers[0].Cond[CondExposedReset]; n != 2 {
					t.Errorf("layer 0 exposed resets = %d, want 2", n)
				}
				checkEquivalence(t, e, x, kind, label+" first edges")
			})
		}
	}
}

// monoRig drives applyMonotonic on one target without a model in the way:
// the layer-0 message rows are whatever the test wrote, the target's α is
// rebuilt whole-row to match, and visit stages a delta and runs the grouped
// update of that one target the way processTarget would.
type monoRig struct {
	e      *Engine
	target graph.NodeID
}

// newMonoBench puts rows[1:] on the sources 1..deg of target 0 and keeps the
// remaining rows on unconnected nodes for insertion.
func newMonoBench(kind gnn.AggKind, rows []tensor.Vector, deg int) (*monoRig, error) {
	n, dim := len(rows), len(rows[0])
	g := graph.New(n)
	for s := 1; s <= deg; s++ {
		if err := g.AddEdge(graph.NodeID(s), 0); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(1))
	layer := gnn.NewSAGELayer(rng, "l0", dim, dim, gnn.NewAggregator(kind), gnn.ActIdentity)
	model := &gnn.Model{Name: "mono", Layers: []gnn.Layer{layer}}
	e, err := New(model, g, tensor.NewMatrix(n, dim), &metrics.Counters{}, Options{})
	if err != nil {
		return nil, err
	}
	for v, row := range rows {
		copy(e.state.M[0].Row(v), row)
	}
	e.recomputeAlpha(0, 0, e.state.Alpha[0].Row(0), &metrics.Tally{})
	return &monoRig{e: e}, nil
}

func (b *monoRig) visit(delta graph.Delta) (changed bool, cond Condition, err error) {
	e := b.e
	oldMsg, err := e.stageBatch(delta, nil)
	if err != nil {
		return false, 0, err
	}
	groups, _ := e.groupLayer(0, e.appendChangedEdgeEvents(nil, 0, delta, oldMsg), nil, nil)
	for _, g := range groups {
		if g.target == b.target {
			changed, cond = e.applyMonotonic(0, g, e.getScratch(0))
			return changed, cond, nil
		}
	}
	return false, 0, fmt.Errorf("no group for target %d", b.target)
}

// bruteAlpha is the definition: per channel, the first holder of the
// extremum over the current in-neighbourhood; the zero row when it is empty.
func (b *monoRig) bruteAlpha(kind gnn.AggKind) tensor.Vector {
	m := b.e.state.M[0]
	out := tensor.NewVector(m.Cols)
	for i := range out {
		for k, v := range b.e.g.InNeighbors(b.target) {
			x := m.Row(int(v))[i]
			if k == 0 || (kind == gnn.AggMax && x > out[i]) || (kind == gnn.AggMin && x < out[i]) {
				out[i] = x
			}
		}
	}
	return out
}

// wantCond classifies a visit from the paper's definitions, channel by
// channel: a channel resets when a deleted message attains α⁻ there, and a
// reset channel is covered when an added message is at least as good.
func wantCond(kind gnn.AggKind, before tensor.Vector, dels, adds []tensor.Vector) Condition {
	reset, exposed := false, false
	for i, a := range before {
		hit, covered := false, false
		for _, d := range dels {
			hit = hit || d[i] == a
		}
		for _, m := range adds {
			covered = covered || (kind == gnn.AggMax && m[i] >= a) || (kind == gnn.AggMin && m[i] <= a)
		}
		reset = reset || hit
		exposed = exposed || (hit && !covered)
	}
	switch {
	case exposed:
		return CondExposedReset
	case reset:
		return CondCoveredReset
	}
	return CondNoReset
}

func TestMonotonicSpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMin} {
		win, lose := tensor.Inf32, -tensor.Inf32
		if kind == gnn.AggMin {
			win, lose = lose, win
		}
		// Channel 0 is won by an infinity, channel 1 carries one on the
		// losing side, channel 2 ties −0 with +0 at the extremum and
		// channel 3 is the winning infinity on every neighbour.
		rows := []tensor.Vector{
			{0, 0, 0, 0},
			{win, 1, negZero, win},
			{3, lose, 0, win},
			{4, 2, negZero, win},
			{win, lose, negZero, lose}, // unconnected; inserted below
		}
		for _, tc := range []struct {
			name  string
			delta graph.Delta
		}{
			{"delete-inf-witness", graph.Delta{del(1, 0)}},
			{"delete-losing-inf", graph.Delta{del(2, 0)}},
			{"swap-in-spare", graph.Delta{del(1, 0), ins(4, 0)}},
			{"delete-all", graph.Delta{del(1, 0), del(2, 0), del(3, 0)}},
			{"delete-all-insert-spare", graph.Delta{del(1, 0), del(2, 0), del(3, 0), ins(4, 0)}},
		} {
			b, err := newMonoBench(kind, rows, 3)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := b.visit(tc.delta); err != nil {
				t.Fatal(err)
			}
			if got, want := b.e.state.Alpha[0].Row(0), b.bruteAlpha(kind); !got.Equal(want) {
				t.Errorf("%s/%s: α = %v, want %v", kind, tc.name, got, want)
			}
		}
	}
}

// Property: for a random group on a random neighbourhood — values drawn from
// five levels, so ties, covered and exposed channels all occur within one
// row — applyMonotonic leaves exactly the per-channel reduce over the
// post-batch neighbourhood, reports changed truthfully and classifies the
// visit as the definitions do.
func TestQuickApplyMonotonicMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := []gnn.AggKind{gnn.AggMax, gnn.AggMin}[rng.Intn(2)]
		dim, deg, spares := 1+rng.Intn(8), rng.Intn(24), 1+rng.Intn(3)
		rows := make([]tensor.Vector, 1+deg+spares)
		for v := range rows {
			rows[v] = tensor.NewVector(dim)
			for i := range rows[v] {
				rows[v][i] = float32(rng.Intn(5) - 2)
			}
		}
		b, err := newMonoBench(kind, rows, deg)
		if err != nil {
			return false
		}
		var delta graph.Delta
		var dels, adds []tensor.Vector
		for s := 1; s <= deg; s++ {
			if rng.Intn(3) == 0 {
				delta, dels = append(delta, del(s, 0)), append(dels, rows[s])
			}
		}
		for s := deg + 1; s < len(rows); s++ {
			if len(delta) == 0 || rng.Intn(2) == 0 {
				delta, adds = append(delta, ins(s, 0)), append(adds, rows[s])
			}
		}
		before := b.e.state.Alpha[0].Row(0).Clone()
		want := CondExposedReset // the first edges of an isolated target
		if deg > 0 {
			want = wantCond(kind, before, dels, adds)
		}
		changed, cond, err := b.visit(delta)
		if err != nil {
			return false
		}
		got := b.e.state.Alpha[0].Row(0)
		return got.Equal(b.bruteAlpha(kind)) && changed == !got.Equal(before) && cond == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
