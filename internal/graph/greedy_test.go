package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// benchGraphs builds the generator graphs the partitioner satellite names:
// an RMAT power-law graph and a skewed bipartite interaction graph.
func benchGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat := dataset.GenerateRMAT(rand.New(rand.NewSource(7)), 512, 2048, dataset.DefaultRMAT)
	bip := dataset.GenerateBipartite(rand.New(rand.NewSource(11)), 128, 384, 2048, 0.8)
	return map[string]*graph.Graph{"rmat": rmat, "bipartite": bip}
}

// TestGreedyPartitionBalance: every shard stays within the configured slack
// of a perfectly even split (the LDG capacity bound), for both the default
// and an explicit slack.
func TestGreedyPartitionBalance(t *testing.T) {
	for name, g := range benchGraphs(t) {
		for _, slack := range []float64{0, 1.10} {
			for _, shards := range []int{2, 4, 8} {
				p, err := graph.NewGreedyPartition(g, shards, slack)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", name, shards, err)
				}
				eff := slack
				if eff <= 1 {
					eff = graph.DefaultGreedySlack
				}
				capacity := int(eff * float64(g.NumNodes()) / float64(shards))
				if min := (g.NumNodes() + shards - 1) / shards; capacity < min {
					capacity = min
				}
				for s, c := range p.Counts() {
					if c > capacity {
						t.Errorf("%s shards=%d slack=%.2f: shard %d holds %d > capacity %d",
							name, shards, slack, s, c, capacity)
					}
				}
			}
		}
	}
}

// TestGreedyPartitionCutBeatsHash: the locality-aware stream must not cut
// more arcs than ID hashing on the bench generators — that is its whole
// reason to exist (ISSUE 8 tentpole axis 1).
func TestGreedyPartitionCutBeatsHash(t *testing.T) {
	for name, g := range benchGraphs(t) {
		for _, shards := range []int{2, 4, 8} {
			greedy, err := graph.NewGreedyPartition(g, shards, 0)
			if err != nil {
				t.Fatalf("%s shards=%d greedy: %v", name, shards, err)
			}
			hash, err := graph.NewHashPartition(g.NumNodes(), shards)
			if err != nil {
				t.Fatalf("%s shards=%d hash: %v", name, shards, err)
			}
			gc, hc := greedy.Cut(g).CutFraction, hash.Cut(g).CutFraction
			if gc > hc {
				t.Errorf("%s shards=%d: greedy cut %.4f > hash cut %.4f", name, shards, gc, hc)
			}
			t.Logf("%s shards=%d: cut greedy=%.4f hash=%.4f", name, shards, gc, hc)
		}
	}
}

// TestGreedyPartitionDeterministic: the assignment is a pure function of the
// graph — a restart rebuilds the partition from the bootstrap graph and
// lands every vertex on the same shard, so per-shard numbers compare
// across runs.
func TestGreedyPartitionDeterministic(t *testing.T) {
	for name, g := range benchGraphs(t) {
		a, err := graph.NewGreedyPartition(g, 4, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := graph.NewGreedyPartition(g.Clone(), 4, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if a.Owner(graph.NodeID(v)) != b.Owner(graph.NodeID(v)) {
				t.Fatalf("%s: owner(%d) differs across identical builds: %d vs %d",
					name, v, a.Owner(graph.NodeID(v)), b.Owner(graph.NodeID(v)))
			}
		}
	}
}

// TestPartitionByStrategy: the flag-resolution helper accepts every listed
// strategy and rejects unknown names.
func TestPartitionByStrategy(t *testing.T) {
	g := dataset.GenerateRMAT(rand.New(rand.NewSource(3)), 64, 256, dataset.DefaultRMAT)
	for _, name := range graph.PartitionStrategies {
		p, err := graph.PartitionByStrategy(name, g, 4)
		if err != nil {
			t.Fatalf("strategy %q: %v", name, err)
		}
		if p.NumShards() != 4 || p.NumNodes() != g.NumNodes() {
			t.Fatalf("strategy %q: got %d shards / %d nodes", name, p.NumShards(), p.NumNodes())
		}
	}
	if _, err := graph.PartitionByStrategy("", g, 2); err != nil {
		t.Fatalf("empty strategy should default to hash: %v", err)
	}
	if _, err := graph.PartitionByStrategy("metis", g, 2); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
