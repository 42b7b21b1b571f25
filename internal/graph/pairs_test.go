package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// churned returns a random graph after several insert/remove batches, so
// its adjacency lists carry swap-remove reorderings, not insertion order.
func churned(rng *rand.Rand, n int, undirected bool) *Graph {
	g := randomGraph(rng, n, 3*n, undirected)
	for i := 0; i < 8; i++ {
		if err := RandomDelta(rng, g, n/2).Apply(g); err != nil {
			panic(err)
		}
	}
	return g
}

// sameLists fails unless got and want have the same shape and every
// adjacency list, out and in, holds the same arcs in the same order.
func sameLists(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.Undirected != want.Undirected || got.NumNodes() != want.NumNodes() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("%s: undirected=%v nodes=%d arcs=%d, want %v/%d/%d", name,
			got.Undirected, got.NumNodes(), got.NumArcs(), want.Undirected, want.NumNodes(), want.NumArcs())
	}
	for u := range want.out {
		if !slices.Equal(got.out[u], want.out[u]) {
			t.Fatalf("%s: out[%d] = %v, want %v", name, u, got.out[u], want.out[u])
		}
		if !slices.Equal(got.in[u], want.in[u]) {
			t.Fatalf("%s: in[%d] = %v, want %v", name, u, got.in[u], want.in[u])
		}
	}
}

// addEach is the per-arc loop FromPairs replaces.
func addEach(n int, undirected bool, pairs [][2]NodeID) *Graph {
	g := New(n)
	g.Undirected = undirected
	for _, p := range pairs {
		if err := g.AddEdge(p[0], p[1]); err != nil {
			panic(err)
		}
	}
	return g
}

// representatives lists g's edges in adjacency-scan order, one pair per
// undirected edge (its lower endpoint first).
func representatives(g *Graph) [][2]NodeID {
	var pairs [][2]NodeID
	for u, list := range g.out {
		for _, v := range list {
			if !g.Undirected || NodeID(u) < v {
				pairs = append(pairs, [2]NodeID{NodeID(u), v})
			}
		}
	}
	return pairs
}

// Every bulk-built graph reproduces, list for list and in order, the graph
// the AddEdge sequence it replaces builds.
func TestBulkBuildMatchesAddEdge(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := churned(rng, 60, undirected)
			name := fmt.Sprintf("undirected=%v seed=%d", undirected, seed)

			pairs := representatives(g)
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			got, err := FromPairs(g.NumNodes(), undirected, pairs)
			if err != nil {
				t.Fatal(err)
			}
			sameLists(t, name+" FromPairs", got, addEach(g.NumNodes(), undirected, pairs))

			sameLists(t, name+" Clone", g.Clone(), g)

			p, err := NewHashPartition(g.NumNodes(), 3)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 3; s++ {
				want := New(g.NumNodes())
				for u := 0; u < g.NumNodes(); u++ {
					for _, v := range g.OutNeighbors(NodeID(u)) {
						if p.Owner(v) == s {
							if err := want.AddEdge(NodeID(u), v); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				sameLists(t, fmt.Sprintf("%s ShardGraph(%d)", name, s), p.ShardGraph(g, s), want)
			}

			ids := make([]NodeID, 0, 40)
			for _, id := range rng.Perm(g.NumNodes())[:40] {
				ids = append(ids, NodeID(id))
			}
			remap := map[NodeID]NodeID{}
			for i, id := range ids {
				remap[id] = NodeID(i)
			}
			want := New(len(ids))
			want.Undirected = undirected
			for i, id := range ids {
				for _, v := range g.out[id] {
					nv, ok := remap[v]
					if !ok || want.HasEdge(NodeID(i), nv) {
						continue
					}
					if err := want.AddEdge(NodeID(i), nv); err != nil {
						t.Fatal(err)
					}
				}
			}
			sameLists(t, name+" InduceSubset", g.InduceSubset(ids), want)
		}
	}
}

func TestFromPairsRejects(t *testing.T) {
	cases := []struct {
		name       string
		undirected bool
		pairs      [][2]NodeID
		want       error
	}{
		{"duplicate", false, [][2]NodeID{{0, 1}, {1, 2}, {0, 1}}, ErrDuplicateEdge},
		{"undirected duplicate", true, [][2]NodeID{{0, 1}, {1, 2}, {0, 1}}, ErrDuplicateEdge},
		{"reversed duplicate", true, [][2]NodeID{{0, 1}, {2, 3}, {1, 0}}, ErrDuplicateEdge},
		{"self-loop", true, [][2]NodeID{{0, 1}, {2, 2}}, ErrSelfLoop},
		{"id past n", false, [][2]NodeID{{0, 1}, {1, 4}}, ErrBadNode},
		{"negative id", true, [][2]NodeID{{-1, 1}}, ErrBadNode},
	}
	for _, c := range cases {
		g, err := FromPairs(4, c.undirected, c.pairs)
		if !errors.Is(err, c.want) || g != nil {
			t.Errorf("%s: got (%v, %v), want %v", c.name, g, err, c.want)
		}
	}
	// A reversed pair is two distinct arcs of a directed graph.
	if _, err := FromPairs(4, false, [][2]NodeID{{0, 1}, {1, 0}}); err != nil {
		t.Errorf("directed reversed pair: %v", err)
	}
}

func TestReadPairs(t *testing.T) {
	want := [][2]NodeID{{0, 1}, {7, 3}, {-1, 2}}
	var b []byte
	for _, p := range want {
		b = append(b, byte(p[0]), byte(p[0]>>8), byte(p[0]>>16), byte(p[0]>>24))
		b = append(b, byte(p[1]), byte(p[1]>>8), byte(p[1]>>16), byte(p[1]>>24))
	}
	got, err := ReadPairs(bytes.NewReader(b), len(want))
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("ReadPairs = %v, %v; want %v", got, err, want)
	}
	if _, err := ReadPairs(bytes.NewReader(b[:20]), len(want)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated: %v", err)
	}
	// A count no input backs fails at the end of the input.
	if _, err := ReadPairs(bytes.NewReader(b), 1<<28); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversized count: %v", err)
	}
}

// pairwiseClustering is the HasEdge-per-pair loop ClusteringCoefficient
// replaced, kept as its oracle.
func pairwiseClustering(g *Graph, rng *rand.Rand, samples int) float64 {
	candidates := make([]NodeID, 0, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		if g.InDegree(NodeID(u)) >= 2 {
			candidates = append(candidates, NodeID(u))
		}
	}
	if len(candidates) == 0 {
		return 0
	}
	if samples >= len(candidates) {
		samples = len(candidates)
	} else {
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
	}
	var total float64
	for _, u := range candidates[:samples] {
		nbrs := g.InNeighbors(u)
		links := 0
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if g.HasEdge(nbrs[i], nbrs[j]) || g.HasEdge(nbrs[j], nbrs[i]) {
					links++
				}
			}
		}
		d := len(nbrs)
		total += float64(2*links) / float64(d*(d-1))
	}
	return total / float64(samples)
}

func TestClusteringCoefficientMatchesPairwise(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			g := churned(rand.New(rand.NewSource(seed)), 50, undirected)
			for _, samples := range []int{7, 1000} {
				got := ClusteringCoefficient(g, rand.New(rand.NewSource(seed)), samples)
				want := pairwiseClustering(g, rand.New(rand.NewSource(seed)), samples)
				if got != want {
					t.Errorf("undirected=%v seed=%d samples=%d: %v, pairwise %v", undirected, seed, samples, got, want)
				}
			}
		}
	}
}

// BenchmarkRemoveEdge times one RemoveEdge plus the AddEdge that restores
// the edge, on an undirected graph: hub removes an edge of a 4 096-degree
// node (both of its lists are scanned), leaf one between two nodes of
// degree about 8.
func BenchmarkRemoveEdge(b *testing.B) {
	const hubDeg, n = 4096, 8192
	rng := rand.New(rand.NewSource(1))
	g := NewUndirected(n)
	for v := NodeID(1); v <= hubDeg; v++ {
		if err := g.AddEdge(0, v); err != nil {
			b.Fatal(err)
		}
	}
	for g.NumEdges() < hubDeg+4*n {
		u, v := NodeID(1+rng.Intn(n-1)), NodeID(1+rng.Intn(n-1))
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	var leafEdges [][2]NodeID
	for u := NodeID(hubDeg + 1); u < n && len(leafEdges) < 1024; u++ {
		for _, v := range g.OutNeighbors(u) {
			if v > hubDeg {
				leafEdges = append(leafEdges, [2]NodeID{u, v})
				break
			}
		}
	}
	run := func(b *testing.B, edge func(i int) (NodeID, NodeID)) {
		for i := 0; i < b.N; i++ {
			u, v := edge(i)
			if err := g.RemoveEdge(u, v); err != nil {
				b.Fatal(err)
			}
			if err := g.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hub", func(b *testing.B) {
		run(b, func(i int) (NodeID, NodeID) { return 0, NodeID(1 + rng.Intn(hubDeg)) })
	})
	b.Run("leaf", func(b *testing.B) {
		run(b, func(i int) (NodeID, NodeID) { e := leafEdges[i%len(leafEdges)]; return e[0], e[1] })
	})
}
