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
// shard router does for one shard: BeginRound, then every layer as one
// RoundLayer over the node-sorted records of the previous stage, then
// FinishRound.
func driveRound(t *testing.T, e *Engine, delta graph.Delta, vups []VertexUpdate) {
	t.Helper()
	recs, err := e.BeginRound(delta, vups)
	if err != nil {
		t.Fatalf("BeginRound: %v", err)
	}
	deliv := append([]MessageChange(nil), recs...)
	sort.Slice(deliv, func(i, j int) bool { return deliv[i].Node < deliv[j].Node })
	for l := 0; l < e.model.NumLayers(); l++ {
		recs, err := e.RoundLayer(l, deliv)
		if err != nil {
			t.Fatalf("RoundLayer %d: %v", l, err)
		}
		deliv = append(deliv[:0], recs...)
	}
	if err := e.FinishRound(); err != nil {
		t.Fatalf("FinishRound: %v", err)
	}
	e.PublishSnapshot()
}

// TestRoundMatchesApply drives an all-local partitioned engine (one shard
// owning everything, over the directed expansion of the same graph) through
// the round protocol and demands bitwise-identical state against a plain
// engine applying the same stream — for every model and aggregator,
// accumulative ones included. This is the single-engine half of the shard
// bit-exactness argument (DESIGN.md §7.5): the regenerated event order must
// equal Apply's native order exactly.
func TestRoundMatchesApply(t *testing.T) {
	for _, name := range []string{"GCN", "SAGE", "GIN"} {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean, gnn.AggSum} {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
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
				// router does: the shard graph's adjacency order differs, so
				// re-inferring over it would land accumulative sums on
				// different ulps.
				ink, err := NewFromState(model, part.ShardGraph(g, 0), plain.State().Clone(), nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
					t.Fatal(err)
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
