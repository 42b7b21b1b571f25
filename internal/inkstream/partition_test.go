package inkstream

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// expandDelta mirrors the shard router: every undirected edge change becomes
// both directed arcs, (u,v) then (v,u) — the same order arcsOf walks them.
func expandDelta(delta graph.Delta) graph.Delta {
	out := make(graph.Delta, 0, 2*len(delta))
	for _, ch := range delta {
		out = append(out,
			graph.EdgeChange{U: ch.U, V: ch.V, Insert: ch.Insert},
			graph.EdgeChange{U: ch.V, V: ch.U, Insert: ch.Insert})
	}
	return out
}

// TestRoundTimingStats pins the round-profiler hooks: with timing on, every
// stage leaves a RoundStageStats behind (ghost refresh counted for remote
// records only, events counted for the staged layer list), FinishRound
// clears it, and running the same stream with timing on stays bit-exact.
func TestRoundTimingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, featLen = 40, 5
	g := randomGraph(rng, n, 100)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "SAGE", featLen, gnn.AggMean)

	plain, err := New(model, g.Clone(), x.Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := graph.NewHashPartition(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ink, err := NewFromState(model, part.ShardGraph(g, 0), plain.State().Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
		t.Fatal(err)
	}
	ink.SetRoundTiming(true)

	nodes := rng.Perm(n)[:3]
	sort.Ints(nodes)
	var vups []VertexUpdate
	for _, v := range nodes {
		vups = append(vups, VertexUpdate{Node: graph.NodeID(v), X: tensor.RandVector(rng, featLen, 1)})
	}
	delta := graph.RandomDelta(rng, plain.Graph(), 4)
	if err := plain.Apply(delta, vups); err != nil {
		t.Fatal(err)
	}

	recs, err := ink.BeginRound(expandDelta(delta), vups)
	if err != nil {
		t.Fatal(err)
	}
	if st := ink.LastStageStats(); st.Events != len(recs) || st.GhostRows != 0 {
		t.Fatalf("begin stats = %+v, want %d events", st, len(recs))
	}
	deliv := append([]MessageChange(nil), recs...)
	sort.Slice(deliv, func(i, j int) bool { return deliv[i].Node < deliv[j].Node })
	for l := 0; l < model.NumLayers(); l++ {
		out, err := ink.RoundLayer(l, deliv)
		if err != nil {
			t.Fatal(err)
		}
		st := ink.LastStageStats()
		// All-local shard: every record is local, so no ghost rows.
		if st.GhostRows != 0 {
			t.Fatalf("layer %d: %d ghost rows on an all-local shard", l, st.GhostRows)
		}
		if len(deliv) > 0 && st.Events == 0 && l == 0 && len(delta) > 0 {
			t.Fatalf("layer %d: zero events staged for a non-empty round", l)
		}
		deliv = append(deliv[:0], out...)
	}
	if err := ink.FinishRound(); err != nil {
		t.Fatal(err)
	}
	if st := ink.LastStageStats(); st != (RoundStageStats{}) {
		t.Fatalf("FinishRound left stats %+v", st)
	}
	ink.PublishSnapshot()
	if !plain.State().Equal(ink.State()) {
		t.Fatal("timing-on round diverged from Apply")
	}
}

// TestPartitionedModeRejections pins the mode boundary: a partitioned engine
// refuses the standalone entry points, rejects remote-vertex feature updates,
// out-of-sequence round calls and out-of-range layers, and a standalone
// engine refuses the round protocol.
func TestPartitionedModeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, featLen = 20, 4
	g := randomGraph(rng, n, 40)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "GCN", featLen, gnn.AggMax)

	plain, err := New(model, g.Clone(), x.Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.BeginRound(nil, nil); err == nil {
		t.Fatal("BeginRound accepted on a standalone engine")
	}
	if _, err := plain.RoundLayer(0, nil); err == nil {
		t.Fatal("RoundLayer accepted on a standalone engine")
	}
	if err := plain.FinishRound(); err == nil {
		t.Fatal("FinishRound accepted without an open round")
	}

	part, err := graph.NewHashPartition(n, 2)
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
	if err := ink.Apply(nil, nil); err == nil {
		t.Fatal("Apply accepted on a partitioned engine")
	}
	if _, err := ink.AddNode(tensor.RandVector(rng, featLen, 1)); err == nil {
		t.Fatal("AddNode accepted on a partitioned engine")
	}
	var remote graph.NodeID = -1
	for v := 0; v < n; v++ {
		if part.Owner(graph.NodeID(v)) != 0 {
			remote = graph.NodeID(v)
			break
		}
	}
	if remote < 0 {
		t.Fatal("partition left shard 1 empty")
	}
	vups := []VertexUpdate{{Node: remote, X: tensor.RandVector(rng, featLen, 1)}}
	if _, err := ink.BeginRound(nil, vups); err == nil {
		t.Fatal("BeginRound accepted a remote vertex update")
	}
	if _, err := ink.RoundLayer(0, nil); err == nil {
		t.Fatal("RoundLayer accepted without an open round")
	}
	if _, err := ink.BeginRound(nil, nil); err != nil {
		t.Fatalf("opening an empty round: %v", err)
	}
	if _, err := ink.BeginRound(nil, nil); err == nil {
		t.Fatal("BeginRound accepted with a round already open")
	}
	for _, l := range []int{-1, model.NumLayers()} {
		if _, err := ink.RoundLayer(l, nil); err == nil {
			t.Fatalf("RoundLayer accepted out-of-range layer %d", l)
		}
	}
	if err := ink.SetPartitionLocal(nil); err == nil {
		t.Fatal("SetPartitionLocal accepted mid-round")
	}
	if err := ink.FinishRound(); err != nil {
		t.Fatal(err)
	}
}
