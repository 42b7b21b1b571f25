package graph

import (
	"fmt"
	"sort"
)

// Partition assigns every vertex to one of NumShards owners — the routing
// map of partitioned multi-engine serving (DESIGN.md §7.4). The assignment
// is immutable after construction: shard graphs and ghost rows are derived
// from it, so re-partitioning means rebuilding the deployment (the WAL is
// logical and replays onto any partition).
type Partition struct {
	owner  []uint8
	shards int
}

// MaxShards bounds the shard count (owners are stored in a uint8).
const MaxShards = 256

func newPartition(n, shards int) (*Partition, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("graph: shard count %d out of range [1,%d]", shards, MaxShards)
	}
	return &Partition{owner: make([]uint8, n), shards: shards}, nil
}

// NewHashPartition spreads n vertices across shards by a deterministic
// integer hash of the vertex ID. Hashing decorrelates shard assignment
// from ID locality, so generator-ordered graphs (RMAT, SBM) spread their
// hubs evenly — the paper-recommended default when no better partitioner
// (METIS-style min-cut) is available.
func NewHashPartition(n, shards int) (*Partition, error) {
	p, err := newPartition(n, shards)
	if err != nil {
		return nil, err
	}
	for v := range p.owner {
		p.owner[v] = uint8(mix64(uint64(v)) % uint64(shards))
	}
	return p, nil
}

// NewBlockPartition assigns contiguous ID ranges to shards (vertex v goes
// to shard v·shards/n). On graphs whose IDs carry locality this minimises
// the cut; on generator-ordered graphs it concentrates hubs.
func NewBlockPartition(n, shards int) (*Partition, error) {
	p, err := newPartition(n, shards)
	if err != nil {
		return nil, err
	}
	for v := range p.owner {
		p.owner[v] = uint8(v * shards / max(n, 1))
	}
	return p, nil
}

// DefaultGreedySlack is the balance slack NewGreedyPartition uses when the
// caller passes slack <= 1: every shard may hold at most 5% more vertices
// than a perfectly even split.
const DefaultGreedySlack = 1.05

// NewGreedyPartition assigns vertices with a streaming greedy heuristic in
// the LDG/Fennel family: vertices are visited in descending degree order
// (hubs first, while every shard still has headroom) and each goes to the
// shard holding most of its already-placed neighbors, discounted by how
// full that shard is — score = |N(v) ∩ P_s| · (1 − |P_s|/C) with capacity
// C = slack·n/shards. Ties break toward the lower shard index and isolated
// or early vertices fall back to the emptiest shard, so the result is a
// pure function of (g, shards, slack): no randomness, stable across runs —
// a restart rebuilds the identical partition from the bootstrap graph.
// Compared to hashing (cut fraction ≈ (N−1)/N) this keeps neighborhoods
// co-resident and typically halves the cut on the power-law bench graphs;
// Cut() measures the achieved fraction.
func NewGreedyPartition(g *Graph, shards int, slack float64) (*Partition, error) {
	n := g.NumNodes()
	p, err := newPartition(n, shards)
	if err != nil {
		return nil, err
	}
	if shards == 1 || n == 0 {
		return p, nil
	}
	if slack <= 1 {
		slack = DefaultGreedySlack
	}
	capacity := int(slack * float64(n) / float64(shards))
	if capacity < (n+shards-1)/shards {
		capacity = (n + shards - 1) / shards // never below a perfectly even split
	}

	order := make([]NodeID, n)
	for v := range order {
		order[v] = NodeID(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.OutDegree(order[i]), g.OutDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})

	placed := make([]bool, n)
	sizes := make([]int, shards)
	nbrCount := make([]int, shards) // scratch: placed neighbors per shard
	for _, v := range order {
		for s := range nbrCount {
			nbrCount[s] = 0
		}
		for _, u := range g.OutNeighbors(v) {
			if placed[u] {
				nbrCount[p.owner[u]]++
			}
		}
		best, bestScore := -1, -1.0
		for s := 0; s < shards; s++ {
			if sizes[s] >= capacity {
				continue
			}
			score := float64(nbrCount[s]) * (1 - float64(sizes[s])/float64(capacity))
			if score > bestScore {
				best, bestScore = s, score
			}
		}
		if best < 0 || bestScore == 0 {
			// No neighbor signal (or every preferred shard full): emptiest
			// shard, lowest index first — keeps the stream balanced and the
			// assignment deterministic.
			best = 0
			for s := 1; s < shards; s++ {
				if sizes[s] < sizes[best] {
					best = s
				}
			}
		}
		p.owner[v] = uint8(best)
		sizes[best]++
		placed[v] = true
	}

	// Refinement: a few deterministic sweeps of capacity-bounded greedy
	// moves. The streaming pass places hubs blind (no neighbors placed yet);
	// revisiting each vertex once everything has a home recovers most of
	// that loss, especially on bipartite graphs where one side carries all
	// the degree. Vertices are visited in ID order and moved to the shard
	// holding strictly more of their neighborhood whenever the target has
	// headroom, so the result stays a pure function of (g, shards, slack).
	for pass := 0; pass < 2; pass++ {
		moved := false
		for v := 0; v < n; v++ {
			for s := range nbrCount {
				nbrCount[s] = 0
			}
			for _, u := range g.OutNeighbors(NodeID(v)) {
				nbrCount[p.owner[u]]++
			}
			cur := int(p.owner[v])
			best := cur
			for s := 0; s < shards; s++ {
				if s == cur || sizes[s] >= capacity {
					continue
				}
				if nbrCount[s] > nbrCount[best] {
					best = s
				}
			}
			if best != cur {
				sizes[cur]--
				sizes[best]++
				p.owner[v] = uint8(best)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return p, nil
}

// PartitionStrategies lists the named strategies PartitionByStrategy
// accepts, in flag-documentation order.
var PartitionStrategies = []string{"hash", "block", "greedy"}

// PartitionByStrategy builds a partition of g's vertices by strategy name:
// "hash" (NewHashPartition), "block" (NewBlockPartition) or "greedy"
// (NewGreedyPartition with the default slack). It is the single place the
// -partition flags of inkserve and inkbench resolve through.
func PartitionByStrategy(strategy string, g *Graph, shards int) (*Partition, error) {
	switch strategy {
	case "", "hash":
		return NewHashPartition(g.NumNodes(), shards)
	case "block":
		return NewBlockPartition(g.NumNodes(), shards)
	case "greedy":
		return NewGreedyPartition(g, shards, 0)
	}
	return nil, fmt.Errorf("graph: unknown partition strategy %q (want one of %v)", strategy, PartitionStrategies)
}

// mix64 is the splitmix64 finalizer: a full-avalanche integer hash, so
// consecutive IDs land on unrelated shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NumShards returns the shard count.
func (p *Partition) NumShards() int { return p.shards }

// NumNodes returns the number of partitioned vertices.
func (p *Partition) NumNodes() int { return len(p.owner) }

// Owner returns the shard owning vertex v.
func (p *Partition) Owner(v NodeID) int { return int(p.owner[v]) }

// LocalMask returns the per-vertex ownership mask of one shard — the
// engine-side local/ghost split (inkstream.SetPartitionLocal).
func (p *Partition) LocalMask(shard int) []bool {
	mask := make([]bool, len(p.owner))
	for v, o := range p.owner {
		mask[v] = int(o) == shard
	}
	return mask
}

// Counts returns the number of vertices owned by each shard.
func (p *Partition) Counts() []int {
	counts := make([]int, p.shards)
	for _, o := range p.owner {
		counts[o]++
	}
	return counts
}

// CutStats summarises how a partition cuts a graph: every arc whose source
// and destination live on different shards crosses the cut. CutFraction is
// the partition-quality figure /v1/stats and the router's cut-fraction gauge
// report; the stats play no role in correctness (the router keeps its own
// subscription tables).
type CutStats struct {
	// Arcs is the total directed arc count; CutArcs the arcs crossing
	// shards; CutFraction their ratio (0 on an empty graph).
	Arcs        int
	CutArcs     int
	CutFraction float64
}

// Cut measures how p cuts g.
func (p *Partition) Cut(g *Graph) CutStats {
	var st CutStats
	for u := 0; u < g.NumNodes(); u++ {
		src := p.Owner(NodeID(u))
		for _, v := range g.OutNeighbors(NodeID(u)) {
			st.Arcs++
			if p.Owner(v) != src {
				st.CutArcs++
			}
		}
	}
	if st.Arcs > 0 {
		st.CutFraction = float64(st.CutArcs) / float64(st.Arcs)
	}
	return st
}

// ShardGraph builds shard s's graph: a directed graph over the full vertex
// ID space containing exactly the arcs whose destination s owns. The shard
// engine aggregates only at local vertices, so it needs every in-arc of a
// local vertex (for exposed-reset recomputes over ghost rows) and no
// others; out-neighbor iteration over this graph yields exactly the local
// destinations a broadcast message-change record fans out to. The result
// is always directed — undirected logical edges must be expanded to arcs
// by the caller (the shard router's expand does this for update batches).
// It is bulk-built in the order AddEdge-ing g's arcs source by source
// would give, from a pair list sized first by the owned vertices'
// in-degrees.
func (p *Partition) ShardGraph(g *Graph, s int) *Graph {
	arcs := 0
	for v, in := range g.in {
		if p.Owner(NodeID(v)) == s {
			arcs += len(in)
		}
	}
	pairs := make([][2]NodeID, 0, arcs)
	for u := range g.out {
		for _, v := range g.out[u] {
			if p.Owner(v) == s {
				pairs = append(pairs, [2]NodeID{NodeID(u), v})
			}
		}
	}
	sg, err := FromPairs(g.NumNodes(), false, pairs)
	if err != nil {
		panic("graph: ShardGraph: " + err.Error())
	}
	return sg
}
