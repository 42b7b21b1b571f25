package inkstream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestVerifyCleanEngine(t *testing.T) {
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
		rng := rand.New(rand.NewSource(1))
		g := randomGraph(rng, 40, 120)
		x := tensor.RandMatrix(rng, 40, 5, 1)
		e, err := New(buildModel(rng, "GCN", 5, kind), g, x, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Update(graph.RandomDelta(rng, e.Graph(), 8)); err != nil {
			t.Fatal(err)
		}
		if err := e.Verify(2e-3); err != nil {
			t.Errorf("%v: healthy engine failed verification: %v", kind, err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 30, 90)
	x := tensor.RandMatrix(rng, 30, 5, 1)
	e, err := New(buildModel(rng, "GCN", 5, gnn.AggMax), g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one cached α value.
	e.State().Alpha[1].Set(3, 0, 1e6)
	if err := e.Verify(0); err == nil {
		t.Error("corrupted state passed verification")
	}
}

// TestVerifyDiffReportsNaN: an output row that diverged to NaN fails
// verification with a diff that is not 0, on both aggregator kinds and with
// or without a tolerance.
func TestVerifyDiffReportsNaN(t *testing.T) {
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
		rng := rand.New(rand.NewSource(3))
		g := randomGraph(rng, 30, 90)
		x := tensor.RandMatrix(rng, 30, 5, 1)
		e, err := New(buildModel(rng, "GCN", 5, kind), g, x, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		row := e.Output().Row(7)
		for i := range row {
			row[i] = float32(math.NaN())
		}
		for _, tol := range []float32{0, 2e-3} {
			diff, err := e.VerifyDiff(tol)
			if err == nil {
				t.Errorf("%v tol %g: a NaN output row passed verification", kind, tol)
			}
			if diff == 0 {
				t.Errorf("%v tol %g: a NaN output row reported diff 0 (%v)", kind, tol, err)
			}
		}
	}
}

// Per-layer statistics sum to the total, and a k-layer GIN accumulates
// visits in deeper layers too.
func TestLayerStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 60, 180)
	x := tensor.RandMatrix(rng, 60, 5, 1)
	model := gnn.NewGIN(rng, 5, 8, 3, gnn.NewAggregator(gnn.AggMax))
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update(graph.RandomDelta(rng, e.Graph(), 10)); err != nil {
		t.Fatal(err)
	}
	var sum ConditionStats
	for l := 0; l < model.NumLayers(); l++ {
		sum.Merge(e.LayerStats(l))
	}
	if sum != *e.Stats() {
		t.Errorf("layer stats sum %v != total %v", sum.String(), e.Stats())
	}
	if e.LayerStats(0).Total() == 0 {
		t.Error("layer 0 saw no visits")
	}
	e.ResetStats()
	for l := 0; l < model.NumLayers(); l++ {
		if e.LayerStats(l).Total() != 0 {
			t.Error("ResetStats left per-layer residue")
		}
	}
}

// Long-horizon drift: accumulative aggregators drift across many batches
// (fp reassociation) but stay within a loose tolerance, and monotonic
// aggregators never drift at all.
func TestLongHorizonDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 60, 180)
	x := tensor.RandMatrix(rng, 60, 5, 1)

	mean, err := New(buildModel(rng, "GCN", 5, gnn.AggMean), g.Clone(), x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxE, err := New(buildModel(rng, "GCN", 5, gnn.AggMax), g.Clone(), x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 30; batch++ {
		d := graph.RandomDelta(rng, mean.Graph(), 6)
		if err := mean.Update(append(graph.Delta(nil), d...)); err != nil {
			t.Fatal(err)
		}
		if err := maxE.Update(append(graph.Delta(nil), d...)); err != nil {
			t.Fatal(err)
		}
	}
	// Monotonic: still bit-exact after 30 batches.
	if err := maxE.Verify(0); err != nil {
		t.Fatalf("monotonic drifted: %v", err)
	}
	// Accumulative: small drift tolerated.
	if err := mean.Verify(5e-2); err != nil {
		t.Fatalf("accumulative drifted beyond loose tolerance: %v", err)
	}
}

// GraphConv (the generality demo model) flows through the incremental
// engine unchanged and stays exact.
func TestGraphConvThroughEngine(t *testing.T) {
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggSum} {
		rng := rand.New(rand.NewSource(3))
		g := randomGraph(rng, 50, 150)
		x := tensor.RandMatrix(rng, 50, 5, 1)
		model := gnn.NewGraphConv(rng, 5, 8, gnn.NewAggregator(kind))
		e, err := New(model, g, x, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 3; batch++ {
			if err := e.Update(graph.RandomDelta(rng, e.Graph(), 10)); err != nil {
				t.Fatal(err)
			}
		}
		checkEquivalence(t, e, x, kind, "graphconv/"+kind.String())
	}
}
