package graph

import (
	"math/rand"
	"testing"
)

func TestComponents(t *testing.T) {
	// Two triangles and one isolated node.
	g := NewUndirected(7)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		mustAdd(t, g, e[0], e[1])
	}
	labels, sizes := Components(g)
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3", len(sizes))
	}
	if sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
	if labels[0] != labels[1] || labels[0] != labels[2] {
		t.Error("first triangle split")
	}
	if labels[0] == labels[3] {
		t.Error("triangles merged")
	}
	if labels[6] == labels[0] || labels[6] == labels[3] {
		t.Error("isolated node mislabeled")
	}
}

func TestComponentsDirected(t *testing.T) {
	// Weak connectivity: 0 -> 1 <- 2 is one component despite directions.
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 2, 1)
	_, sizes := Components(g)
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Triangle: every node's neighborhood is fully linked.
	tri := NewUndirected(3)
	mustAdd(t, tri, 0, 1)
	mustAdd(t, tri, 1, 2)
	mustAdd(t, tri, 2, 0)
	if cc := ClusteringCoefficient(tri, rng, 10); cc != 1 {
		t.Errorf("triangle cc = %g, want 1", cc)
	}
	// Star: leaves have degree 1 (skipped), hub's neighbors unlinked.
	star := NewUndirected(5)
	for i := NodeID(1); i < 5; i++ {
		mustAdd(t, star, 0, i)
	}
	if cc := ClusteringCoefficient(star, rng, 10); cc != 0 {
		t.Errorf("star cc = %g, want 0", cc)
	}
	// No degree>=2 node at all.
	pair := NewUndirected(2)
	mustAdd(t, pair, 0, 1)
	if cc := ClusteringCoefficient(pair, rng, 10); cc != 0 {
		t.Errorf("pair cc = %g", cc)
	}
}

func TestEffectiveDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Path of 10: sampled 90th percentile distance is positive and <= 9.
	g := NewUndirected(10)
	for i := NodeID(0); i < 9; i++ {
		mustAdd(t, g, i, i+1)
	}
	d := EffectiveDiameter(g, rng, 20)
	if d < 1 || d > 9 {
		t.Errorf("path diameter estimate = %d", d)
	}
	if EffectiveDiameter(New(3), rng, 5) != 0 {
		t.Error("edgeless graph should report 0")
	}
}
