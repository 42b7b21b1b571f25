package main

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func testGraph(t *testing.T) (*graph.Graph, *tensor.Matrix) {
	t.Helper()
	spec, err := dataset.ByName("PM")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale *= 16
	g, feats := dataset.Generate(spec, 7)
	return g, feats.X
}

// bodies returns the first n request bodies of every connection.
func bodies(g *graph.Graph, seed int64, n int) [][]byte {
	var out [][]byte
	for _, s := range newStreams(g, seed, 2, 16, 4, 8) {
		for i := 0; i < n; i++ {
			out = append(out, s.next().body)
		}
	}
	return out
}

func TestStreamDeterministic(t *testing.T) {
	g, _ := testGraph(t)
	a, b, c := bodies(g, 1, 200), bodies(g, 1, 200), bodies(g, 2, 200)
	differs := false
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two runs of seed 1:\n%s\n%s", i, a[i], b[i])
		}
		if !bytes.Equal(a[i], c[i]) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 generate the same requests")
	}
}

// TestStreamNeverRejected replays 10k requests, interleaving the
// connections at random as a server might, into an in-process graph: every
// change must apply, and the graph reached must be the one finalState
// predicts from the streams alone.
func TestStreamNeverRejected(t *testing.T) {
	g, x := testGraph(t)
	live := g.Clone()
	streams := newStreams(g, 3, 3, 16, 8, x.Cols)
	pools := make(map[[2]graph.NodeID]int)
	for c, s := range streams {
		for _, sl := range s.slots {
			if owner, dup := pools[[2]graph.NodeID{sl.u, sl.v}]; dup {
				t.Fatalf("edge (%d,%d) is in the pools of connections %d and %d", sl.u, sl.v, owner, c)
			}
			pools[[2]graph.NodeID{sl.u, sl.v}] = c
		}
	}
	rng := rand.New(rand.NewSource(1))
	edges0 := g.NumEdges()
	for i := 0; i < 10000; i++ {
		r := streams[rng.Intn(len(streams))].next()
		if err := r.delta.Validate(live); err != nil {
			t.Fatalf("request %d would be rejected: %v", i, err)
		}
		if err := r.delta.Apply(live); err != nil {
			t.Fatal(err)
		}
		for _, vu := range r.vups {
			if int(vu.Node) >= g.NumNodes() || len(vu.X) != x.Cols {
				t.Fatalf("request %d: bad vertex update %+v", i, vu)
			}
		}
	}
	if d := live.NumEdges() - edges0; d < -slotsPerConn || d > slotsPerConn {
		t.Errorf("graph drifted by %d edges; the stream should be steady", d)
	}

	final, fx := g.Clone(), x.Clone()
	if err := finalState(streams, final, fx); err != nil {
		t.Fatal(err)
	}
	if final.NumEdges() != live.NumEdges() {
		t.Fatalf("finalState has %d edges, replay %d", final.NumEdges(), live.NumEdges())
	}
	for _, e := range live.Edges() {
		if !final.HasEdge(e[0], e[1]) {
			t.Fatalf("finalState lacks edge %v", e)
		}
	}
	if fx.Equal(x) {
		t.Error("finalState left the features unchanged although features requests were generated")
	}
}
