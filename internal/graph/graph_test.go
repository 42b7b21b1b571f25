package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *Graph, u, v NodeID) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func TestAddRemoveDirected(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directed arc direction wrong")
	}
	if g.NumEdges() != 2 || g.NumArcs() != 2 {
		t.Errorf("counts: edges=%d arcs=%d", g.NumEdges(), g.NumArcs())
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.InDegree(2) != 1 {
		t.Error("degrees wrong")
	}
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.NumEdges() != 1 {
		t.Error("removal did not take")
	}
}

func TestUndirectedMirrors(t *testing.T) {
	g := NewUndirected(3)
	mustAdd(t, g, 0, 1)
	if !g.HasEdge(1, 0) {
		t.Error("undirected edge must mirror")
	}
	if g.NumEdges() != 1 || g.NumArcs() != 2 {
		t.Errorf("edges=%d arcs=%d", g.NumEdges(), g.NumArcs())
	}
	if err := g.RemoveEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.NumArcs() != 0 {
		t.Error("undirected removal must mirror")
	}
}

func TestEdgeErrors(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate: %v", err)
	}
	if err := g.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop: %v", err)
	}
	if err := g.AddEdge(0, 5); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad node: %v", err)
	}
	if err := g.RemoveEdge(1, 2); !errors.Is(err, ErrMissingEdge) {
		t.Errorf("missing: %v", err)
	}
	// Failed ops must not corrupt state.
	if g.NumEdges() != 1 || !g.HasEdge(0, 1) {
		t.Error("state corrupted by failed operations")
	}
}

func TestAddNode(t *testing.T) {
	g := New(1)
	id := g.AddNode()
	if id != 1 || g.NumNodes() != 2 {
		t.Errorf("AddNode id=%d nodes=%d", id, g.NumNodes())
	}
	mustAdd(t, g, 0, id)
	if !g.HasEdge(0, 1) {
		t.Error("edge to new node missing")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewUndirected(4)
	mustAdd(t, g, 0, 1)
	c := g.Clone()
	mustAdd(t, c, 2, 3)
	if g.HasEdge(2, 3) {
		t.Error("clone mutation leaked into original")
	}
	if err := c.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Error("clone removal leaked into original")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 2, 0)
	mustAdd(t, g, 0, 3)
	mustAdd(t, g, 0, 1)
	es := g.Edges()
	want := [][2]NodeID{{0, 1}, {0, 3}, {2, 0}}
	if len(es) != len(want) {
		t.Fatalf("len=%d", len(es))
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestMaxInDegree(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 3)
	mustAdd(t, g, 1, 3)
	mustAdd(t, g, 2, 3)
	if got := g.MaxInDegree(); got != 3 {
		t.Errorf("MaxInDegree=%d", got)
	}
}

func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 50, 200, true)
	c := FreezeIn(g)
	if c.NumNodes() != g.NumNodes() {
		t.Fatal("node count mismatch")
	}
	for u := 0; u < g.NumNodes(); u++ {
		adj := g.InNeighbors(NodeID(u))
		frozen := c.Neighbors(NodeID(u))
		if len(adj) != len(frozen) || c.Degree(NodeID(u)) != len(adj) {
			t.Fatalf("node %d: degree mismatch %d vs %d", u, len(adj), len(frozen))
		}
		set := map[NodeID]bool{}
		for _, v := range adj {
			set[v] = true
		}
		for _, v := range frozen {
			if !set[v] {
				t.Fatalf("node %d: CSR has stray neighbor %d", u, v)
			}
		}
	}
}

func randomGraph(rng *rand.Rand, n, edges int, undirected bool) *Graph {
	var g *Graph
	if undirected {
		g = NewUndirected(n)
	} else {
		g = New(n)
	}
	for g.NumEdges() < edges {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

func TestDeltaApplyUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 30, 80, true)
	before := g.Clone()
	d := RandomDelta(rng, g, 10)
	if err := d.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := d.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g.NumEdges() != before.NumEdges() {
		// 5 dels + 5 ins keeps the count.
		t.Errorf("edge count drifted: %d vs %d", g.NumEdges(), before.NumEdges())
	}
	d.Undo(g)
	if g.NumEdges() != before.NumEdges() {
		t.Error("Undo did not restore edge count")
	}
	for _, e := range before.Edges() {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("Undo lost edge %v", e)
		}
	}
}

func TestDeltaApplyRollbackOnError(t *testing.T) {
	g := NewUndirected(4)
	mustAdd(t, g, 0, 1)
	d := Delta{
		{U: 2, V: 3, Insert: true},
		{U: 1, V: 2, Insert: false}, // missing -> fails
	}
	if err := d.Apply(g); err == nil {
		t.Fatal("expected error")
	}
	if g.HasEdge(2, 3) {
		t.Error("failed Apply must roll back earlier changes")
	}
	if !g.HasEdge(0, 1) || g.NumEdges() != 1 {
		t.Error("state corrupted")
	}
}

func TestDeltaValidateRejects(t *testing.T) {
	g := NewUndirected(4)
	mustAdd(t, g, 0, 1)
	cases := []struct {
		name string
		d    Delta
	}{
		{"dup-insert", Delta{{U: 0, V: 1, Insert: true}}},
		{"missing-del", Delta{{U: 2, V: 3, Insert: false}}},
		{"self-loop", Delta{{U: 2, V: 2, Insert: true}}},
		{"bad-node", Delta{{U: 0, V: 9, Insert: true}}},
		{"double-touch", Delta{{U: 0, V: 1, Insert: false}, {U: 1, V: 0, Insert: true}}},
	}
	for _, c := range cases {
		if err := c.d.Validate(g); err == nil {
			t.Errorf("%s: Validate accepted invalid delta", c.name)
		}
	}
}

func TestRandomDeltaBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 100, 400, true)
	for _, n := range []int{1, 2, 10, 101} {
		d := RandomDelta(rng, g, n)
		if len(d) != n {
			t.Fatalf("n=%d: got %d changes", n, len(d))
		}
		dels := 0
		for _, c := range d {
			if !c.Insert {
				dels++
			}
		}
		if dels != n/2 {
			t.Errorf("n=%d: dels=%d want %d", n, dels, n/2)
		}
		if err := d.Validate(g); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestDeltaTouched(t *testing.T) {
	d := Delta{{U: 0, V: 1, Insert: true}, {U: 2, V: 1, Insert: false}}
	got := d.Touched(false)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("directed Touched = %v", got)
	}
	set := map[NodeID]bool{}
	for _, u := range d.Touched(true) {
		set[u] = true
	}
	if len(set) != 3 || !set[0] || !set[1] || !set[2] {
		t.Errorf("undirected Touched = %v", set)
	}
}

func TestKHopLevels(t *testing.T) {
	// Path 0 -> 1 -> 2 -> 3 -> 4
	g := New(5)
	for i := NodeID(0); i < 4; i++ {
		mustAdd(t, g, i, i+1)
	}
	r := KHopOut(g, []NodeID{1}, 2)
	if r.Size() != 3 {
		t.Fatalf("Size=%d want 3", r.Size())
	}
	if len(r.Levels) != 3 || r.Levels[0][0] != 1 || r.Levels[1][0] != 2 || r.Levels[2][0] != 3 {
		t.Errorf("Levels=%v", r.Levels)
	}
	if !r.Contains(3) || r.Contains(4) || r.Contains(0) {
		t.Error("Contains wrong")
	}
}

func TestKHopDedupSeeds(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	r := KHopOut(g, []NodeID{0, 0, 1}, 1)
	if len(r.Levels[0]) != 2 {
		t.Errorf("seeds not deduped: %v", r.Levels[0])
	}
}

func TestKHopEarlyStop(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	r := KHopOut(g, []NodeID{0}, 5)
	if len(r.Levels) != 2 {
		t.Errorf("BFS should stop when frontier empties, levels=%d", len(r.Levels))
	}
}

func TestKHopMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40, 120, trial%2 == 0)
		seed := NodeID(rng.Intn(40))
		k := 1 + rng.Intn(4)
		r := KHopOut(g, []NodeID{seed}, k)
		// Brute force: repeated neighbor expansion over a set.
		want := map[NodeID]bool{seed: true}
		frontier := map[NodeID]bool{seed: true}
		for hop := 0; hop < k; hop++ {
			next := map[NodeID]bool{}
			for u := range frontier {
				for _, v := range g.OutNeighbors(u) {
					if !want[v] {
						want[v] = true
						next[v] = true
					}
				}
			}
			frontier = next
		}
		if len(want) != r.Size() {
			t.Fatalf("trial %d: size %d vs brute %d", trial, r.Size(), len(want))
		}
		for u := range want {
			if !r.Contains(u) {
				t.Fatalf("trial %d: missing node %d", trial, u)
			}
		}
	}
}

func TestExpandInCoversInNeighborhoods(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 60, 200, true)
	seeds := []NodeID{3, 17}
	k := 2
	r := KHopOut(g, seeds, k)
	sets := r.ExpandIn(g, k)
	if len(sets) != k+1 {
		t.Fatalf("sets len=%d", len(sets))
	}
	// Every layer-l set must contain the layer l+1 set and its in-neighbors.
	for l := k; l >= 1; l-- {
		lower := map[NodeID]bool{}
		for _, u := range sets[l-1] {
			lower[u] = true
		}
		for _, u := range sets[l] {
			if !lower[u] {
				t.Fatalf("layer %d: node %d missing from layer %d set", l, u, l-1)
			}
			for _, v := range g.InNeighbors(u) {
				if !lower[v] {
					t.Fatalf("layer %d: in-neighbor %d of %d missing below", l, v, u)
				}
			}
		}
	}
}

func TestGenerateStreamReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomGraph(rng, 50, 150, true)
	cfg := StreamConfig{BatchSize: 10, NumBatches: 5, Seed: 99}
	s1 := GenerateStream(base, cfg)
	s2 := GenerateStream(base, cfg)
	if len(s1.Batches) != 5 || len(s2.Batches) != 5 {
		t.Fatal("batch count")
	}
	for i := range s1.Batches {
		if len(s1.Batches[i]) != len(s2.Batches[i]) {
			t.Fatal("stream not reproducible")
		}
		for j := range s1.Batches[i] {
			if s1.Batches[i][j] != s2.Batches[i][j] {
				t.Fatal("stream not reproducible")
			}
		}
	}
	// At(t) must replay to a state on which batch t validates.
	for tm := 0; tm < 5; tm++ {
		g := s1.At(tm)
		if err := s1.Batches[tm].Validate(g); err != nil {
			t.Fatalf("t=%d: %v", tm, err)
		}
	}
}

// Property: applying then undoing a random delta restores the exact edge set.
func TestQuickDeltaRoundTrip(t *testing.T) {
	f := func(seed int64, nEdges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 60+int(nEdges%40), true)
		want := g.Edges()
		d := RandomDelta(rng, g, 8)
		if err := d.Apply(g); err != nil {
			return false
		}
		d.Undo(g)
		got := g.Edges()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
