package dataset

import (
	"math/rand"

	"repro/internal/graph"
)

// RMATParams are the quadrant probabilities of the recursive-matrix
// generator (Chakrabarti et al.). The defaults are the standard Graph500
// skew, which yields the heavy-tailed degree distributions of real social
// and citation networks — the property that makes k-hop neighborhoods
// explode on dense datasets the way the paper reports.
type RMATParams struct {
	A, B, C float64 // D = 1 - A - B - C
}

// DefaultRMAT is the Graph500 parameterisation.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19}

// GenerateRMAT builds an undirected graph with nodes vertices and
// approximately edges distinct edges using the RMAT process. Duplicate and
// self-loop draws are retried, so the result has exactly `edges` edges
// unless the graph saturates (then it returns what fits).
func GenerateRMAT(rng *rand.Rand, nodes, edges int, p RMATParams) *graph.Graph {
	g := graph.NewUndirected(nodes)
	// Round node count up to a power of two for the recursion, then reject
	// samples outside [0, nodes).
	levels := 0
	for 1<<levels < nodes {
		levels++
	}
	maxEdges := nodes * (nodes - 1) / 2
	if edges > maxEdges {
		edges = maxEdges
	}
	misses := 0
	for g.NumEdges() < edges {
		u, v := rmatDraw(rng, levels, p)
		if u >= nodes || v >= nodes || u == v {
			continue
		}
		if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
			// Duplicate: the hub-heavy RMAT distribution revisits hot pairs.
			misses++
			if misses > 50*edges+1000 {
				break // saturated beyond practical retry
			}
			continue
		}
	}
	return g
}

func rmatDraw(rng *rand.Rand, levels int, p RMATParams) (int, int) {
	u, v := 0, 0
	for l := 0; l < levels; l++ {
		r := rng.Float64()
		switch {
		case r < p.A:
			// top-left: no bits set
		case r < p.A+p.B:
			v |= 1 << l
		case r < p.A+p.B+p.C:
			u |= 1 << l
		default:
			u |= 1 << l
			v |= 1 << l
		}
	}
	return u, v
}

// GenerateBipartite builds an undirected user–item interaction graph:
// nodes [0, users) are users, [users, users+items) are items, and every
// edge connects a user to an item. Item popularity is exponentially skewed
// with rate `skew` (larger = heavier head), matching real interaction
// logs. The partitioner tests use it as their skewed second input.
func GenerateBipartite(rng *rand.Rand, users, items, interactions int, skew float64) *graph.Graph {
	g := graph.NewUndirected(users + items)
	if skew <= 0 {
		skew = 1
	}
	maxEdges := users * items
	if interactions > maxEdges {
		interactions = maxEdges
	}
	for misses := 0; g.NumEdges() < interactions && misses < 100*interactions+1000; {
		u := graph.NodeID(rng.Intn(users))
		item := int(rng.ExpFloat64() * float64(items) / skew)
		if item >= items {
			item = items - 1
		}
		v := graph.NodeID(users + item)
		if g.HasEdge(u, v) {
			misses++
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic("dataset: bipartite generator: " + err.Error())
		}
	}
	return g
}

// Generate builds the synthetic graph and feature matrix for a dataset
// profile with a reproducible seed.
func Generate(spec Spec, seed int64) (*graph.Graph, *Features) {
	rng := rand.New(rand.NewSource(seed))
	g := GenerateRMAT(rng, spec.Nodes(), spec.Edges(), DefaultRMAT)
	f := NewFeatures(rng, spec.Nodes(), spec.FeatLen())
	return g, f
}
