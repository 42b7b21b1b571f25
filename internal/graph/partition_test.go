package graph

import (
	"math/rand"
	"testing"
)

func TestHashPartitionCoverage(t *testing.T) {
	const n, shards = 1000, 4
	p, err := NewHashPartition(n, shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := p.Counts()
	total := 0
	for s, c := range counts {
		total += c
		if c == 0 {
			t.Errorf("shard %d owns no vertices", s)
		}
		// Hashing should land within a loose factor of the fair share.
		if c < n/shards/2 || c > n*2/shards {
			t.Errorf("shard %d owns %d vertices, want near %d", s, c, n/shards)
		}
	}
	if total != n {
		t.Fatalf("counts sum to %d, want %d", total, n)
	}
	for s := 0; s < shards; s++ {
		mask := p.LocalMask(s)
		owned := 0
		for v, local := range mask {
			if local != (p.Owner(NodeID(v)) == s) {
				t.Fatalf("mask[%d] disagrees with Owner for shard %d", v, s)
			}
			if local {
				owned++
			}
		}
		if owned != counts[s] {
			t.Fatalf("shard %d mask has %d owned, Counts says %d", s, owned, counts[s])
		}
	}
}

func TestBlockPartitionIsContiguous(t *testing.T) {
	p, err := NewBlockPartition(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 100; v++ {
		if p.Owner(NodeID(v)) < p.Owner(NodeID(v-1)) {
			t.Fatalf("block partition not monotone at %d", v)
		}
	}
}

func TestPartitionShardRange(t *testing.T) {
	if _, err := NewHashPartition(10, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewHashPartition(10, MaxShards+1); err == nil {
		t.Fatal("too many shards accepted")
	}
}

// TestCutAndShardGraphs checks that the shard graphs tile the arc set: the
// union of all shard graphs is the full arc set, each shard graph holds
// exactly the arcs whose destination it owns, and the cut statistics agree
// with a direct count.
func TestCutAndShardGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewUndirected(50)
	for g.NumEdges() < 120 {
		u, v := NodeID(rng.Intn(50)), NodeID(rng.Intn(50))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewHashPartition(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Cut(g)
	if st.Arcs != g.NumArcs() {
		t.Fatalf("cut counted %d arcs, graph has %d", st.Arcs, g.NumArcs())
	}
	wantCut := 0
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(NodeID(u)) {
			if p.Owner(NodeID(u)) != p.Owner(v) {
				wantCut++
			}
		}
	}
	if st.CutArcs != wantCut {
		t.Fatalf("CutArcs = %d, want %d", st.CutArcs, wantCut)
	}
	if wantCut == 0 {
		t.Fatal("test graph has a trivial cut; pick a different seed")
	}

	totalArcs := 0
	for s := 0; s < 3; s++ {
		sg := p.ShardGraph(g, s)
		if sg.Undirected {
			t.Fatal("shard graph must be directed")
		}
		if sg.NumNodes() != g.NumNodes() {
			t.Fatalf("shard graph has %d nodes, want %d", sg.NumNodes(), g.NumNodes())
		}
		wantArcs := 0
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.OutNeighbors(NodeID(u)) {
				if p.Owner(v) == s {
					wantArcs++
				}
			}
		}
		if sg.NumArcs() != wantArcs {
			t.Fatalf("shard %d has %d arcs, %d arcs have a destination it owns", s, sg.NumArcs(), wantArcs)
		}
		totalArcs += sg.NumArcs()
		for u := 0; u < sg.NumNodes(); u++ {
			for _, v := range sg.OutNeighbors(NodeID(u)) {
				if p.Owner(v) != s {
					t.Fatalf("shard %d holds arc (%d,%d) with remote destination", s, u, v)
				}
				if !g.HasEdge(NodeID(u), v) {
					t.Fatalf("shard %d holds arc (%d,%d) absent from the source graph", s, u, v)
				}
			}
		}
	}
	if totalArcs != g.NumArcs() {
		t.Fatalf("shard graphs tile %d arcs, graph has %d", totalArcs, g.NumArcs())
	}
}
