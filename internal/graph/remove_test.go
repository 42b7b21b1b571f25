package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// checkMirrored verifies that the two adjacency lists describe one arc set:
// every out-arc (u,v) appears exactly once in in[v], both totals equal m,
// and an undirected graph holds (v,u) for every (u,v), with in[u] equal to
// out[u] entry for entry (RemoveEdge finds an arc's slot in both with one
// scan).
func checkMirrored(t *testing.T, g *Graph) {
	t.Helper()
	outs, ins := 0, 0
	for u := range g.out {
		outs += len(g.out[u])
		ins += len(g.in[u])
		if g.Undirected && !slices.Equal(g.out[u], g.in[u]) {
			t.Fatalf("undirected node %d: out %v, in %v", u, g.out[u], g.in[u])
		}
		for _, v := range g.out[u] {
			n := 0
			for _, w := range g.in[v] {
				if w == NodeID(u) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("out-arc (%d,%d) appears %d times in in[%d]", u, v, n, v)
			}
			if g.Undirected && !g.HasEdge(v, NodeID(u)) {
				t.Fatalf("undirected arc (%d,%d) has no reverse", u, v)
			}
		}
	}
	if outs != g.m || ins != g.m {
		t.Fatalf("%d out-arcs and %d in-arcs but m=%d", outs, ins, g.m)
	}
}

// Randomised churn keeps the out- and in-lists mirror images of one arc
// set through interleaved inserts and removals, directed and undirected.
func TestRemoveEdgeMirrorConsistency(t *testing.T) {
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
				checkMirrored(t, g)
			}
		}
		checkMirrored(t, g)
		// Drain every remaining edge; both list sets must empty out.
		for _, e := range live {
			if !g.HasEdge(e.u, e.v) {
				continue
			}
			if err := g.RemoveEdge(e.u, e.v); err != nil {
				t.Fatal(err)
			}
		}
		checkMirrored(t, g)
		if g.NumArcs() != 0 {
			t.Fatalf("undirected=%v: %d arcs after drain", undirected, g.NumArcs())
		}
	}
}
