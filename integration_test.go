package repro

// Cross-package integration tests: generate a dataset, stream edge
// insertions and deletions through the incremental engine and the k-hop
// baseline, and verify both against from-scratch inference.

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
)

// The three maintained systems (InkStream, k-hop baseline, full inference)
// agree after the same multi-batch stream of insertions and deletions:
// bit-exact under max, within float reassociation under mean.
func TestAllMethodsAgreeOnStream(t *testing.T) {
	for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			g := dataset.GenerateRMAT(rng, 400, 1600, dataset.DefaultRMAT)
			feats := dataset.NewFeatures(rng, 400, 8)
			model := gnn.NewSAGE(rng, 8, 16, gnn.NewAggregator(kind))
			stream := graph.GenerateStream(g, graph.StreamConfig{BatchSize: 15, NumBatches: 4, Seed: 5})

			ink, err := inkstream.New(model, g.Clone(), feats.X, nil, inkstream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			khop, err := baseline.NewKHop(model, g.Clone(), feats.X, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range stream.Batches {
				if err := ink.Update(append(graph.Delta(nil), d...)); err != nil {
					t.Fatalf("ink batch %d: %v", i, err)
				}
				if err := khop.Update(append(graph.Delta(nil), d...)); err != nil {
					t.Fatalf("khop batch %d: %v", i, err)
				}
			}
			full := &baseline.Full{Model: model}
			want, err := full.Infer(stream.At(len(stream.Batches)), feats.X)
			if err != nil {
				t.Fatal(err)
			}
			if kind == gnn.AggMax {
				if !ink.State().Equal(want) {
					t.Error("inkstream is not bit-identical to full inference")
				}
			} else if !ink.State().ApproxEqual(want, 2e-3) {
				t.Error("inkstream disagrees with full inference")
			}
			if !khop.Output().ApproxEqual(want.Output(), 1e-4) {
				t.Error("k-hop disagrees with full inference")
			}
		})
	}
}

// Dataset round trip feeds the engine: save, load, run.
func TestSavedDatasetDrivesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	spec := dataset.PubMed
	spec.Scale *= 16
	g, f := dataset.Generate(spec, 77)
	path := t.TempDir() + "/pm.inks"
	if err := dataset.SaveFile(path, g, f); err != nil {
		t.Fatal(err)
	}
	g2, f2, err := dataset.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	model := gnn.NewGIN(rng, f2.Dim(), 8, 3, gnn.NewAggregator(gnn.AggMax))
	eng, err := inkstream.New(model, g2, f2.X, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(graph.RandomDelta(rng, eng.Graph(), 10)); err != nil {
		t.Fatal(err)
	}
	want, err := gnn.Infer(model, eng.Graph(), f2.X, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.State().Equal(want) {
		t.Error("engine over loaded dataset diverged")
	}
}
