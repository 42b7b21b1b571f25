// Quickstart: the minimal InkStream workflow.
//
//  1. Build a dynamic graph and a GNN model.
//  2. Run the initial full-graph inference (the engine does it for you).
//  3. Stream edge changes through Engine.Update — embeddings refresh
//     incrementally in milliseconds.
//  4. Verify the incremental state is exactly what full recomputation
//     would produce.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run executes the example, writing its report to w.
func run(w io.Writer) error {
	// A small power-law graph standing in for a social network snapshot.
	rng := rand.New(rand.NewSource(42))
	g := dataset.GenerateRMAT(rng, 2000, 8000, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, g.NumNodes(), 32)
	fmt.Fprintf(w, "graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// A 2-layer GCN with max aggregation — InkStream-m territory: results
	// are bit-identical to full recomputation.
	model := gnn.NewGCN(rng, feats.Dim(), 64, gnn.NewAggregator(gnn.AggMax))

	// Bootstrap: one full inference, checkpointing m and α per layer.
	var counters metrics.Counters
	t0 := time.Now()
	engine, err := inkstream.New(model, g, feats.X, &counters, inkstream.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "initial full inference: %v\n", time.Since(t0).Round(time.Microsecond))

	// Stream ten batches of edge changes through the engine.
	for batch := 0; batch < 10; batch++ {
		delta := graph.RandomDelta(rng, engine.Graph(), 20)
		t0 = time.Now()
		if err := engine.Update(delta); err != nil {
			return err
		}
		fmt.Fprintf(w, "batch %d: ΔG=%d applied in %v\n", batch, len(delta),
			time.Since(t0).Round(time.Microsecond))
	}
	fmt.Fprintf(w, "work done: %v\n", counters.Snapshot())
	fmt.Fprintf(w, "node conditions: %v\n", engine.Stats())

	// Verify: the incrementally maintained state equals a from-scratch
	// inference over the final graph, bit for bit.
	want, err := gnn.Infer(model, engine.Graph(), feats.X, nil)
	if err != nil {
		return err
	}
	if !engine.State().Equal(want) {
		return errors.New("incremental state diverged from full recomputation")
	}
	fmt.Fprintln(w, "verified: incremental state is bit-identical to full recomputation")
	return nil
}
