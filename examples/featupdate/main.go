// Featupdate: vertex-feature updates on a sensor network (Sec. II-F).
//
// Nodes are environmental sensors whose readings form the node features;
// edges connect sensors that co-vary. A 3-layer GIN summarises each
// sensor's neighborhood. Sensors push fresh readings continuously; instead
// of re-running inference, InkStream propagates each feature change
// through the affected region only. The example also grows the network
// with Engine.AddNode — a newly deployed sensor joins the running system.
//
// Run with: go run ./examples/featupdate
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
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "featupdate:", err)
		os.Exit(1)
	}
}

// run executes the example, writing its report to w.
func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(5))
	sensors := 3000
	g := dataset.GenerateRMAT(rng, sensors, 9000, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, sensors, 16) // latest readings per sensor

	model := gnn.NewGIN(rng, feats.Dim(), 32, 3, gnn.NewAggregator(gnn.AggMax))
	engine, err := inkstream.New(model, g, feats.X, nil, inkstream.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sensor network: %d sensors, %d links, %d-layer GIN\n",
		engine.Graph().NumNodes(), engine.Graph().NumEdges(), model.NumLayers())

	// Simulate rounds of sensors reporting new readings.
	tracked := feats.X.Clone() // ground-truth feature matrix for verification
	var total time.Duration
	for round := 0; round < 5; round++ {
		var ups []inkstream.VertexUpdate
		for i := 0; i < 10; i++ {
			u := graph.NodeID(rng.Intn(engine.Graph().NumNodes()))
			dup := false
			for _, prev := range ups {
				if prev.Node == u {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			reading := tensor.RandVector(rng, feats.Dim(), 1)
			ups = append(ups, inkstream.VertexUpdate{Node: u, X: reading})
			tracked.SetRow(int(u), reading)
		}
		t0 := time.Now()
		if err := engine.UpdateVertices(ups); err != nil {
			return err
		}
		d := time.Since(t0)
		total += d
		fmt.Fprintf(w, "round %d: %d sensor readings propagated in %v\n", round, len(ups), d.Round(time.Microsecond))
	}

	// Deploy a new sensor and wire it to three nearby ones.
	newFeat := tensor.RandVector(rng, feats.Dim(), 1)
	id, err := engine.AddNode(newFeat)
	if err != nil {
		return err
	}
	if err := engine.Update(graph.Delta{
		{U: id, V: 10, Insert: true},
		{U: id, V: 20, Insert: true},
		{U: id, V: 30, Insert: true},
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "deployed sensor %d and linked it to 3 neighbors\n", id)

	// Verify against full inference with the tracked features.
	full := tensor.NewMatrix(engine.Graph().NumNodes(), feats.Dim())
	copy(full.Data[:len(tracked.Data)], tracked.Data)
	full.SetRow(int(id), newFeat)
	want, err := gnn.Infer(model, engine.Graph(), full, nil)
	if err != nil {
		return err
	}
	if !engine.State().Equal(want) {
		return errors.New("incremental state diverged after vertex updates")
	}
	fmt.Fprintf(w, "total incremental time: %v\n", total.Round(time.Microsecond))
	fmt.Fprintln(w, "verified: incremental state is bit-identical to full inference")
	return nil
}
