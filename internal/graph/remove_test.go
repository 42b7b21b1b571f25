package graph

import (
	"math/rand"
	"testing"
)

// checkArcIndex verifies that the arc-position index agrees with the
// adjacency lists: every indexed arc points at the right slot in both
// directions, and every adjacency entry is indexed.
func checkArcIndex(t *testing.T, g *Graph) {
	t.Helper()
	count := 0
	for u := range g.out {
		for i, v := range g.out[u] {
			pos, ok := g.edges[key(NodeID(u), v)]
			if !ok {
				t.Fatalf("arc (%d,%d) in adjacency but not indexed", u, v)
			}
			if int(pos.out) != i {
				t.Fatalf("arc (%d,%d): index says out slot %d, actual %d", u, v, pos.out, i)
			}
			if g.in[v][pos.in] != NodeID(u) {
				t.Fatalf("arc (%d,%d): in slot %d holds %d", u, v, pos.in, g.in[v][pos.in])
			}
			count++
		}
	}
	if count != len(g.edges) {
		t.Fatalf("%d adjacency arcs but %d index entries", count, len(g.edges))
	}
	if count != g.m {
		t.Fatalf("%d adjacency arcs but m=%d", count, g.m)
	}
}

// Randomised churn keeps the arc-position index consistent with the
// adjacency lists through interleaved inserts and removals, directed and
// undirected.
func TestRemoveEdgeIndexConsistency(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		var g *Graph
		if undirected {
			g = NewUndirected(40)
		} else {
			g = New(40)
		}
		type edge struct{ u, v NodeID }
		var live []edge
		for step := 0; step < 2000; step++ {
			u := NodeID(rng.Intn(40))
			v := NodeID(rng.Intn(40))
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				for i, e := range live {
					if g.HasEdge(e.u, e.v) {
						continue
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			} else if !(undirected && g.HasEdge(v, u)) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				live = append(live, edge{u, v})
			}
			if step%97 == 0 {
				checkArcIndex(t, g)
			}
		}
		checkArcIndex(t, g)
		// Drain every remaining edge; the index must empty out exactly.
		for _, e := range live {
			if !g.HasEdge(e.u, e.v) {
				continue
			}
			if err := g.RemoveEdge(e.u, e.v); err != nil {
				t.Fatal(err)
			}
		}
		if g.NumArcs() != 0 || len(g.edges) != 0 {
			t.Fatalf("undirected=%v: %d arcs, %d index entries after drain",
				undirected, g.NumArcs(), len(g.edges))
		}
	}
}
