package shard

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// directedReplica bulk-builds the router's graph, and must reproduce, list
// for list and in order, the per-arc AddEdge loop it replaces, on directed
// and undirected sources after insert/remove churn.
func TestDirectedReplicaMatchesAddEdge(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		rng := rand.New(rand.NewSource(21))
		g := graph.New(60)
		g.Undirected = undirected
		for g.NumEdges() < 240 {
			u, v := graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60))
			if u != v && !g.HasEdge(u, v) && !g.HasEdge(v, u) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 6; i++ {
			if err := graph.RandomDelta(rng, g, 40).Apply(g); err != nil {
				t.Fatal(err)
			}
		}
		want := graph.New(g.NumNodes())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			for _, v := range g.OutNeighbors(u) {
				if err := want.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := directedReplica(g)
		if got.Undirected || got.NumArcs() != want.NumArcs() {
			t.Fatalf("undirected=%v: replica undirected=%v with %d arcs, want %d", undirected, got.Undirected, got.NumArcs(), want.NumArcs())
		}
		for u := graph.NodeID(0); int(u) < want.NumNodes(); u++ {
			if !slices.Equal(got.OutNeighbors(u), want.OutNeighbors(u)) ||
				!slices.Equal(got.InNeighbors(u), want.InNeighbors(u)) {
				t.Fatalf("undirected=%v node %d: out %v in %v, want out %v in %v", undirected, u,
					got.OutNeighbors(u), got.InNeighbors(u), want.OutNeighbors(u), want.InNeighbors(u))
			}
		}
	}
}
