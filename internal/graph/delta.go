package graph

import (
	"fmt"
	"math/rand"
)

// EdgeChange is one entry of a ΔG batch: insertion or removal of a single
// logical edge (u, v).
type EdgeChange struct {
	U, V   NodeID
	Insert bool
}

func (c EdgeChange) String() string {
	op := "del"
	if c.Insert {
		op = "ins"
	}
	return fmt.Sprintf("%s(%d,%d)", op, c.U, c.V)
}

// Delta is the set of edges modified between two timestamps (ΔG in the
// paper). Changes are applied in order.
type Delta []EdgeChange

// Apply mutates g with every change in d. On the first failing change it
// rolls back the changes already applied and returns the error, leaving g
// exactly as before the call.
func (d Delta) Apply(g *Graph) error {
	for i, c := range d {
		var err error
		if c.Insert {
			err = g.AddEdge(c.U, c.V)
		} else {
			err = g.RemoveEdge(c.U, c.V)
		}
		if err != nil {
			d[:i].Undo(g)
			return fmt.Errorf("graph: delta change %d (%v): %w", i, c, err)
		}
	}
	return nil
}

// Undo reverts d on a graph where d was previously applied, processing
// changes in reverse order. It panics on inconsistency (an undo that fails
// indicates state corruption, not a recoverable condition).
func (d Delta) Undo(g *Graph) {
	for i := len(d) - 1; i >= 0; i-- {
		c := d[i]
		var err error
		if c.Insert {
			err = g.RemoveEdge(c.U, c.V)
		} else {
			err = g.AddEdge(c.U, c.V)
		}
		if err != nil {
			panic(fmt.Sprintf("graph: Undo of %v failed: %v", c, err))
		}
	}
}

// Validate checks d against g without mutating it: removals must target
// existing edges, insertions must target absent ones, and no edge may be
// touched twice. This is the failure-injection surface exercised by the
// test suite.
func (d Delta) Validate(g *Graph) error {
	seen := make(map[arcKey]struct{}, len(d))
	for i, c := range d {
		if err := g.checkNodes(c.U, c.V); err != nil {
			return fmt.Errorf("graph: delta change %d (%v): %w", i, c, err)
		}
		k := key(c.U, c.V)
		rk := key(c.V, c.U)
		if _, dup := seen[k]; dup {
			return fmt.Errorf("graph: delta change %d (%v): edge touched twice", i, c)
		}
		seen[k] = struct{}{}
		if g.Undirected {
			seen[rk] = struct{}{}
		}
		if c.Insert && g.HasEdge(c.U, c.V) {
			return fmt.Errorf("graph: delta change %d (%v): %w", i, c, ErrDuplicateEdge)
		}
		if !c.Insert && !g.HasEdge(c.U, c.V) {
			return fmt.Errorf("graph: delta change %d (%v): %w", i, c, ErrMissingEdge)
		}
	}
	return nil
}

// RandomDelta draws a ΔG batch of size n against g: n/2 removals of
// existing edges and n-n/2 insertions of absent edges, following the
// paper's "changed edges are evenly distributed for edge insertion and
// deletion". The generated delta passes Validate on g. It panics if g has
// no edges to remove or is complete (cannot insert).
func RandomDelta(rng *rand.Rand, g *Graph, n int) Delta {
	dels := n / 2
	ins := n - dels
	d := make(Delta, 0, n)
	touched := make(map[arcKey]struct{}, n)

	edges := g.Edges()
	if g.Undirected {
		// Keep one representative arc (u < v) per logical edge.
		uniq := edges[:0]
		for _, e := range edges {
			if e[0] < e[1] {
				uniq = append(uniq, e)
			}
		}
		edges = uniq
	}
	if dels > 0 && len(edges) == 0 {
		panic("graph: RandomDelta on empty graph")
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := 0; i < dels && i < len(edges); i++ {
		e := edges[i]
		d = append(d, EdgeChange{U: e[0], V: e[1], Insert: false})
		touched[key(e[0], e[1])] = struct{}{}
		touched[key(e[1], e[0])] = struct{}{}
	}

	nNodes := NodeID(g.NumNodes())
	for added, attempts := 0, 0; added < ins; attempts++ {
		if attempts > 100*ins+1000 {
			panic("graph: RandomDelta could not find absent edges to insert")
		}
		u := NodeID(rng.Intn(int(nNodes)))
		v := NodeID(rng.Intn(int(nNodes)))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if _, dup := touched[key(u, v)]; dup {
			continue
		}
		d = append(d, EdgeChange{U: u, V: v, Insert: true})
		touched[key(u, v)] = struct{}{}
		touched[key(v, u)] = struct{}{}
		added++
	}
	return d
}

// Touched returns the distinct destination endpoints whose in-neighborhood
// is altered by d — the layer-1 seeds of the affected area. For undirected
// graphs both endpoints are seeds.
func (d Delta) Touched(undirected bool) []NodeID {
	set := make(map[NodeID]struct{}, 2*len(d))
	for _, c := range d {
		set[c.V] = struct{}{}
		if undirected {
			set[c.U] = struct{}{}
		}
	}
	out := make([]NodeID, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	return out
}
