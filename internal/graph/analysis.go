package graph

import (
	"math/rand"
	"sort"
)

// Components labels the weakly connected components of g (treating every
// arc as bidirectional) and returns the label array plus the component
// sizes in descending order. Affected-area growth saturates at the size of
// the component containing the changed edges, which is why Fig. 1a's
// curves plateau below 100%.
func Components(g *Graph) (labels []int, sizes []int) {
	n := g.NumNodes()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	queue := make([]NodeID, 0, n)
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], NodeID(start))
		size := 1
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.OutNeighbors(u) {
				if labels[v] == -1 {
					labels[v] = next
					queue = append(queue, v)
					size++
				}
			}
			for _, v := range g.InNeighbors(u) {
				if labels[v] == -1 {
					labels[v] = next
					queue = append(queue, v)
					size++
				}
			}
		}
		sizes = append(sizes, size)
		next++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return labels, sizes
}

// ClusteringCoefficient estimates the average local clustering coefficient
// by sampling `samples` random nodes with degree >= 2 (exact when samples
// covers all such nodes). High clustering increases the overlap of k-hop
// neighborhoods, which dampens affected-area growth.
func ClusteringCoefficient(g *Graph, rng *rand.Rand, samples int) float64 {
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
	// links counts the neighbour pairs joined by an arc either way. N(u)
	// is marked with u's stamp; each neighbour a's lists are scanned for
	// marked endpoints above a, so a pair is counted from its lower end,
	// and a per-neighbour stamp in seen stops a pair joined both ways
	// counting twice. That is O(Σ deg) per sample instead of a HasEdge per
	// pair. Sampled nodes are distinct, so stale marks never match.
	mark := make([]int32, g.NumNodes())
	seen := make([]int32, g.NumNodes())
	var tok int32
	var total float64
	for _, u := range candidates[:samples] {
		nbrs := g.InNeighbors(u)
		for _, a := range nbrs {
			mark[a] = u + 1
		}
		links := 0
		for _, a := range nbrs {
			tok++
			lists := [][]NodeID{g.out[a], g.in[a]}
			if g.Undirected {
				lists = lists[:1] // in[a] holds the same endpoints
			}
			for _, list := range lists {
				for _, b := range list {
					if b > a && mark[b] == u+1 && seen[b] != tok {
						seen[b] = tok
						links++
					}
				}
			}
		}
		d := len(nbrs)
		total += float64(2*links) / float64(d*(d-1))
	}
	return total / float64(samples)
}

// EffectiveDiameter estimates the 90th-percentile pairwise BFS distance by
// sampling `sources` random start nodes over out-arcs; unreachable pairs
// are ignored. Returns 0 for edgeless graphs.
func EffectiveDiameter(g *Graph, rng *rand.Rand, sources int) int {
	n := g.NumNodes()
	if n == 0 || g.NumArcs() == 0 {
		return 0
	}
	var dists []int
	dist := make([]int, n)
	for s := 0; s < sources; s++ {
		start := NodeID(rng.Intn(n))
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		queue := []NodeID{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.OutNeighbors(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
					dists = append(dists, dist[v])
				}
			}
		}
	}
	if len(dists) == 0 {
		return 0
	}
	sort.Ints(dists)
	return dists[len(dists)*9/10]
}
