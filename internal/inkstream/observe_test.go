package inkstream

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// TestApplyRecordsTrace checks that an observed Apply fills a per-layer
// trace consistent with the engine's own statistics.
func TestApplyRecordsTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, feat = 60, 6
	g := randomGraph(rng, n, 4*n)
	x := tensor.RandMatrix(rng, n, feat, 1)
	model := buildModel(rng, "GCN", feat, gnn.AggMax)

	o := obs.NewObserver()

	var c metrics.Counters
	e, err := New(model, g, x, &c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(o)
	delta := graph.RandomDelta(rng, g, 6)
	before := *e.Stats()
	if err := e.Update(delta); err != nil {
		t.Fatal(err)
	}
	if o.Updates() != 1 {
		t.Fatalf("observer recorded %d updates", o.Updates())
	}
	got := e.Trace()
	if got.DeltaEdges != len(delta) || got.VertexUpdates != 0 {
		t.Errorf("trace batch: dG=%d vups=%d", got.DeltaEdges, got.VertexUpdates)
	}
	if len(got.Layers) != model.NumLayers() {
		t.Fatalf("trace has %d layers, model %d", len(got.Layers), model.NumLayers())
	}
	// Layer-0 native input is exactly the changed-edge events (undirected:
	// two arcs per change; no carried events on an edge-only batch).
	wantArcs := int64(2 * len(delta))
	if got.Layers[0].EventsIn != wantArcs {
		t.Errorf("layer 0 events in = %d, want %d", got.Layers[0].EventsIn, wantArcs)
	}
	// Routing runs in the consuming layer: a layer's EventsOut is the routed
	// arc-event count of the next layer (0 for the last), and EventsIn —
	// computed per source as out-degree less this batch's inserted arcs, no
	// event being built — is exactly what the targets then consumed.
	last := len(got.Layers) - 1
	for l := 0; l < last; l++ {
		if want := got.Layers[l+1].EventsIn - wantArcs; got.Layers[l].EventsOut != want {
			t.Errorf("layer %d events out = %d, layer %d routed %d", l, got.Layers[l].EventsOut, l+1, want)
		}
	}
	if got.Layers[last].EventsOut != 0 {
		t.Errorf("last layer events out = %d", got.Layers[last].EventsOut)
	}
	if consumed := c.EventsProcessed.Load(); got.Events() != consumed {
		t.Errorf("trace counts %d events in, targets consumed %d", got.Events(), consumed)
	}
	// Per-condition span counts must reconcile with the engine's stats.
	var sum ConditionStats
	for l := range got.Layers {
		for c := Condition(0); c < numConditions; c++ {
			sum.Counts[c] += got.Layers[l].Cond[c]
		}
	}
	after := *e.Stats()
	for c := Condition(0); c < numConditions; c++ {
		if want := after.Counts[c] - before.Counts[c]; sum.Counts[c] != want {
			t.Errorf("condition %s: trace %d, stats %d", c, sum.Counts[c], want)
		}
	}
	if got.NodesVisited() != sum.Total() {
		t.Errorf("NodesVisited %d != cond total %d", got.NodesVisited(), sum.Total())
	}
	if got.Total <= 0 || got.Layers[0].Elapsed <= 0 {
		t.Errorf("missing timings: total=%v L0=%v", got.Total, got.Layers[0].Elapsed)
	}
	if got.Layers[0].BytesFetched <= 0 {
		t.Errorf("layer 0 bytes fetched = %d", got.Layers[0].BytesFetched)
	}
	if s := o.UpdateLatency.Snapshot(); s.Count != 1 || s.Max <= 0 {
		t.Errorf("latency histogram: %+v", s)
	}

	// A vertex-only batch traces through the same path.
	if err := e.UpdateVertices([]VertexUpdate{{Node: 3, X: tensor.RandVector(rng, feat, 1)}}); err != nil {
		t.Fatal(err)
	}
	if got.VertexUpdates != 1 || got.DeltaEdges != 0 {
		t.Fatalf("vertex trace: %+v", got)
	}
}

// TestSlowUpdateEmission: only updates at or above the threshold count as
// slow.
func TestSlowUpdateEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, feat = 40, 5
	g := randomGraph(rng, n, 3*n)
	x := tensor.RandMatrix(rng, n, feat, 1)
	model := buildModel(rng, "GCN", feat, gnn.AggMax)

	o := obs.NewObserver()
	o.SlowThreshold = time.Hour // nothing is that slow
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(o)
	if err := e.Update(graph.RandomDelta(rng, g, 4)); err != nil {
		t.Fatal(err)
	}
	if o.SlowUpdates() != 0 {
		t.Fatalf("hour threshold: slow=%d", o.SlowUpdates())
	}
	o.SlowThreshold = time.Nanosecond // everything is slow
	if err := e.Update(graph.RandomDelta(rng, g, 4)); err != nil {
		t.Fatal(err)
	}
	if o.SlowUpdates() != 1 {
		t.Fatalf("nanosecond threshold: slow=%d", o.SlowUpdates())
	}
}

// TestObservedApplyDoesNotAllocate: the trace buffer is engine-owned, so
// steady-state observation must not add allocations to the hot path.
func TestObservedApplyDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	rng := rand.New(rand.NewSource(43))
	const n, feat = 50, 5
	g := randomGraph(rng, n, 3*n)
	x := tensor.RandMatrix(rng, n, feat, 1)
	model := buildModel(rng, "GCN", feat, gnn.AggMax)
	setWorkers(t, 1)
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the retained scratch, measure the unobserved baseline, then
	// install the observer and measure again: the observability layer must
	// not add a single allocation per batch.
	if err := e.Apply(nil, nil); err != nil {
		t.Fatal(err)
	}
	measure := func() float64 {
		return testing.AllocsPerRun(50, func() {
			if err := e.Apply(nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure()
	e.SetObserver(obs.NewObserver())
	if err := e.Apply(nil, nil); err != nil { // warm the trace buffer
		t.Fatal(err)
	}
	if observed := measure(); observed > base {
		t.Errorf("observation adds allocations: %.1f/op observed vs %.1f/op baseline", observed, base)
	}
}

// BenchmarkApplyObservability measures the observability tax on the
// steady-state hot path: the same alternating insert/delete workload as
// BenchmarkApply with the observer off vs on (latency histogram + trace
// fill, no emission). scripts/obs_overhead.sh gates the delta at <5%.
func BenchmarkApplyObservability(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n, feat, hidden = 2048, 64, 64
	g := randomGraph(rng, n, 4*n)
	x := tensor.RandMatrix(rng, n, feat, 1)
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
	for _, ch := range ins {
		if err := g.RemoveEdge(ch.U, ch.V); err != nil {
			b.Fatal(err)
		}
	}
	del := make(graph.Delta, len(ins))
	for i, ch := range ins {
		del[i] = graph.EdgeChange{U: ch.U, V: ch.V, Insert: false}
	}
	for _, cfg := range []struct {
		name string
		o    *obs.Observer
	}{
		{"off", nil},
		{"on", obs.NewObserver()},
	} {
		model := gnn.NewGCN(rand.New(rand.NewSource(6)), feat, hidden, gnn.NewAggregator(gnn.AggMax))
		e, err := New(model, g, x, nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		e.SetObserver(cfg.o)
		b.Run(cfg.name, func(b *testing.B) {
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
			if b.N%2 == 1 {
				if err := e.Update(del); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
