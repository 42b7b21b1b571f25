package inkstream

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// driveRound pushes one batch through the round protocol exactly the way the
// shard router does: BeginRound, then every layer as RoundLayerBoundary
// followed by RoundLayerInterior with the two record slices concatenated and
// node-sorted like the router's overlapped merge, then FinishRound. The
// boundary slice must survive the interior call untouched (the overlap
// contract), so it is only copied out afterwards.
func driveRound(t *testing.T, e *Engine, delta graph.Delta, vups []VertexUpdate) {
	t.Helper()
	recs, err := e.BeginRound(delta, vups)
	if err != nil {
		t.Fatalf("BeginRound: %v", err)
	}
	merged := append([]MessageChange(nil), recs...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Node < merged[j].Node })
	for l := 0; l < e.model.NumLayers(); l++ {
		bnd, err := e.RoundLayerBoundary(l, merged)
		if err != nil {
			t.Fatalf("RoundLayerBoundary %d: %v", l, err)
		}
		bndCopy := append([]MessageChange(nil), bnd...)
		intr, err := e.RoundLayerInterior()
		if err != nil {
			t.Fatalf("RoundLayerInterior %d: %v", l, err)
		}
		// The boundary slice must still hold the same records after the
		// interior phase ran — the router reads it concurrently.
		for i := range bndCopy {
			if bnd[i].Node != bndCopy[i].Node || !bnd[i].New.Equal(bndCopy[i].New) || !bnd[i].Old.Equal(bndCopy[i].Old) {
				t.Fatalf("layer %d: boundary record %d mutated by interior phase", l, i)
			}
		}
		merged = append(append(merged[:0], bnd...), intr...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].Node < merged[j].Node })
	}
	if err := e.FinishRound(); err != nil {
		t.Fatalf("FinishRound: %v", err)
	}
	e.PublishSnapshot()
}

// TestSplitRoundMatchesApply drives an all-local partitioned engine (one
// shard owning everything, over the directed expansion of the same graph)
// through the round protocol and demands bitwise-identical state against a
// plain engine applying the same stream — for every model and aggregator,
// accumulative ones included. This is the single-engine half of the shard
// bit-exactness argument (DESIGN.md §7.5): the regenerated event order must
// equal Apply's native order exactly, and splitting a layer into boundary
// and interior phases moves the schedule, never the values (§7.4). The mask
// rows: none (the whole layer runs in the boundary phase — the unsplit
// protocol), an adversarial every-third-vertex mask (correctness must not
// depend on the mask meaning anything: the router's real mask is an
// optimisation hint, not a correctness input), and all vertices (the
// interior phase is empty).
func TestSplitRoundMatchesApply(t *testing.T) {
	masks := []struct {
		name string
		at   func(v int) bool // nil: no mask installed
	}{
		{"nil", nil},
		{"third", func(v int) bool { return v%3 == 0 }},
		{"all", func(int) bool { return true }},
	}
	for _, mask := range masks {
		for _, name := range []string{"GCN", "SAGE", "GIN"} {
			for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean, gnn.AggSum} {
				t.Run(fmt.Sprintf("%s/%s/%s", mask.name, name, kind), func(t *testing.T) {
					rng := rand.New(rand.NewSource(43))
					const n, featLen = 60, 6
					g := randomGraph(rng, n, 150)
					x := tensor.RandMatrix(rng, n, featLen, 1)
					model := buildModel(rng, name, featLen, kind)

					plain, err := New(model, g.Clone(), x.Clone(), nil, Options{})
					if err != nil {
						t.Fatal(err)
					}
					part, err := graph.NewHashPartition(n, 1)
					if err != nil {
						t.Fatal(err)
					}
					// Bootstrap from the original graph's inference, like the
					// router does: the shard graph's adjacency order differs,
					// so re-inferring over it would land accumulative sums on
					// different ulps.
					ink, err := NewFromState(model, part.ShardGraph(g, 0), plain.State().Clone(), nil, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
						t.Fatal(err)
					}
					if mask.at != nil {
						boundary := make([]bool, n)
						for v := range boundary {
							boundary[v] = mask.at(v)
						}
						if err := ink.SetPartitionBoundary(boundary); err != nil {
							t.Fatal(err)
						}
					}

					xCur := x.Clone()
					for step := 0; step < 8; step++ {
						delta := graph.RandomDelta(rng, plain.Graph(), 4)
						var vups []VertexUpdate
						if step%2 == 1 {
							nodes := rng.Perm(n)[:3]
							sort.Ints(nodes)
							for _, v := range nodes {
								vups = append(vups, VertexUpdate{
									Node: graph.NodeID(v),
									X:    tensor.RandVector(rng, featLen, 1),
								})
								copy(xCur.Row(v), vups[len(vups)-1].X)
							}
						}
						if err := plain.Apply(delta, vups); err != nil {
							t.Fatalf("step %d: plain Apply: %v", step, err)
						}
						driveRound(t, ink, expandDelta(delta), vups)
						if !plain.State().Equal(ink.State()) {
							t.Fatalf("step %d: round-protocol state diverged from Apply", step)
						}
					}
					checkEquivalence(t, plain, xCur, kind, "plain")
				})
			}
		}
	}
}

// TestSplitRoundSequencing pins the split-phase state machine: interior
// without boundary, boundary twice in a row, FinishRound mid-split and
// mid-round boundary-mask changes are all rejected.
func TestSplitRoundSequencing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, featLen = 20, 4
	g := randomGraph(rng, n, 40)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "GCN", featLen, gnn.AggMax)

	part, err := graph.NewHashPartition(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ink, err := New(model, part.ShardGraph(g, 0), x.Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ink.RoundLayerInterior(); err == nil {
		t.Fatal("RoundLayerInterior accepted without an open round")
	}
	if _, err := ink.BeginRound(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ink.RoundLayerInterior(); err == nil {
		t.Fatal("RoundLayerInterior accepted without a boundary phase")
	}
	if _, err := ink.RoundLayerBoundary(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ink.RoundLayerBoundary(1, nil); err == nil {
		t.Fatal("RoundLayerBoundary accepted with the previous interior pending")
	}
	if err := ink.FinishRound(); err == nil {
		t.Fatal("FinishRound accepted mid-split")
	}
	if err := ink.SetPartitionBoundary(nil); err == nil {
		t.Fatal("SetPartitionBoundary accepted mid-round")
	}
	if _, err := ink.RoundLayerInterior(); err != nil {
		t.Fatal(err)
	}
	for l := 1; l < model.NumLayers(); l++ {
		if _, err := ink.RoundLayerBoundary(l, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ink.RoundLayerInterior(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ink.FinishRound(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostRowHydration pins the hydration API: MessageRow reads the live
// message row, SetGhostMessageRow adopts it on another shard's engine for
// remote vertices only, and both reject out-of-range layers.
func TestGhostRowHydration(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, featLen = 20, 4
	g := randomGraph(rng, n, 40)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "GCN", featLen, gnn.AggMax)

	part, err := graph.NewHashPartition(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s int) *Engine {
		e, err := New(model, part.ShardGraph(g, s), x.Clone(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetPartitionLocal(part.LocalMask(s)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e0, e1 := mk(0), mk(1)

	var local0 graph.NodeID = -1
	for v := 0; v < n; v++ {
		if part.Owner(graph.NodeID(v)) == 0 {
			local0 = graph.NodeID(v)
			break
		}
	}
	if local0 < 0 {
		t.Fatal("shard 0 empty")
	}
	row, err := e0.MessageRow(0, local0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SetGhostMessageRow(0, local0, row); err != nil {
		t.Fatalf("hydrating remote row: %v", err)
	}
	got, err := e1.MessageRow(0, local0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(row) {
		t.Fatal("hydrated ghost row does not match the owner's row")
	}
	if err := e0.SetGhostMessageRow(0, local0, row); err == nil {
		t.Fatal("SetGhostMessageRow accepted a local (authoritative) row")
	}
	if _, err := e0.MessageRow(model.NumLayers(), local0); err == nil {
		t.Fatal("MessageRow accepted an out-of-range layer")
	}
	if err := e1.SetGhostMessageRow(-1, local0, row); err == nil {
		t.Fatal("SetGhostMessageRow accepted an out-of-range layer")
	}
}
