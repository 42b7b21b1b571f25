package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Clone is a perfect structural copy — counts, membership,
// degrees.
func TestQuickCloneFaithful(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 25, 60, seed%2 == 0)
		c := g.Clone()
		if c.NumNodes() != g.NumNodes() || c.NumArcs() != g.NumArcs() || c.Undirected != g.Undirected {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			if c.InDegree(NodeID(u)) != g.InDegree(NodeID(u)) ||
				c.OutDegree(NodeID(u)) != g.OutDegree(NodeID(u)) {
				return false
			}
		}
		for _, e := range g.Edges() {
			if !c.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: undirected graphs are symmetric — every arc has its mirror,
// and in- and out-degree agree everywhere, through arbitrary churn.
func TestQuickUndirectedSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 40, true)
		for i := 0; i < 3; i++ {
			d := RandomDelta(rng, g, 6)
			if err := d.Apply(g); err != nil {
				return false
			}
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e[1], e[0]) {
				return false
			}
		}
		for u := 0; u < g.NumNodes(); u++ {
			if g.InDegree(NodeID(u)) != g.OutDegree(NodeID(u)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: CSR freeze is degree- and membership-faithful at any point in
// a mutation stream.
func TestQuickCSRFaithful(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 50, true)
		if err := RandomDelta(rng, g, 8).Apply(g); err != nil {
			return false
		}
		c := FreezeIn(g)
		for u := 0; u < g.NumNodes(); u++ {
			if c.Degree(NodeID(u)) != g.InDegree(NodeID(u)) {
				return false
			}
			for _, v := range c.Neighbors(NodeID(u)) {
				if !g.HasEdge(v, NodeID(u)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: InduceSubset preserves exactly the edges among the kept nodes.
func TestQuickInduceSubset(t *testing.T) {
	f := func(seed int64, keepRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 80, true)
		keep := 2 + int(keepRaw)%28
		perm := rng.Perm(30)[:keep]
		ids := make([]NodeID, keep)
		for i, p := range perm {
			ids[i] = NodeID(p)
		}
		sub := g.InduceSubset(ids)
		// Every sub edge maps back to an original edge.
		for _, e := range sub.Edges() {
			if !g.HasEdge(ids[e[0]], ids[e[1]]) {
				return false
			}
		}
		// Every original edge among kept nodes appears in sub.
		pos := map[NodeID]NodeID{}
		for i, id := range ids {
			pos[id] = NodeID(i)
		}
		for _, e := range g.Edges() {
			pu, okU := pos[e[0]]
			pv, okV := pos[e[1]]
			if okU && okV && !sub.HasEdge(pu, pv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
