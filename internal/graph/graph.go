// Package graph provides the dynamic-graph substrate for InkStream: an
// adjacency-list store supporting streaming edge insertion and removal,
// CSR freezing for fast full-graph inference, k-hop affected-area
// computation, and delta-batch (ΔG) generation: random insert/delete
// batches (RandomDelta) and the streams built from them (GenerateStream).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a vertex. Graphs in this package use dense IDs in
// [0, NumNodes).
type NodeID = int32

// ErrDuplicateEdge is returned when inserting an arc that already exists.
var ErrDuplicateEdge = errors.New("graph: edge already exists")

// ErrMissingEdge is returned when removing an arc that does not exist.
var ErrMissingEdge = errors.New("graph: edge does not exist")

// ErrSelfLoop is returned when inserting a self-loop; the GNN models in
// this repository add self-contributions in the layer update instead.
var ErrSelfLoop = errors.New("graph: self-loops are not supported")

// ErrBadNode is returned for node IDs outside [0, NumNodes).
var ErrBadNode = errors.New("graph: node id out of range")

// Graph is a dynamic directed graph. In GNN terms an arc (u, v) means "u's
// message flows to v": aggregation at v reads v's in-neighbors, and effect
// propagation from u follows u's out-arcs. Undirected datasets store each
// edge as two arcs (see Undirected).
//
// The two adjacency lists are the whole store: 4 B per arc in each
// direction, the 8 B per arc the memcost artifact models, and no arc index.
// AddEdge appends; HasEdge scans the shorter of out[u] and in[v], and
// RemoveEdge finds the arc in both lists and swap-removes it, so a list's
// order is a function of the insert/remove sequence alone. The scan is the
// price: BenchmarkRemoveEdge (a removal plus the re-insert that restores
// it, undirected, on a 2-vCPU Xeon with Go 1.24) reads 1.2–1.7 µs at a
// 4 096-degree hub and 64–100 ns at a degree-8 leaf. FromPairs builds a
// graph from a known arc list in one pass.
type Graph struct {
	// Undirected records whether AddEdge/RemoveEdge mirror every arc.
	Undirected bool

	out [][]NodeID
	in  [][]NodeID
	m   int // arc count
}

// arcKey packs an arc into one map key (Delta.Validate's per-batch set).
type arcKey uint64

func key(u, v NodeID) arcKey { return arcKey(uint64(uint32(u))<<32 | uint64(uint32(v))) }

// New returns an empty directed graph with n nodes.
func New(n int) *Graph {
	return &Graph{
		out: make([][]NodeID, n),
		in:  make([][]NodeID, n),
	}
}

// NewUndirected returns an empty undirected graph with n nodes; every
// AddEdge/RemoveEdge call maintains both arc directions.
func NewUndirected(n int) *Graph {
	g := New(n)
	g.Undirected = true
	return g
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumArcs returns the number of directed arcs (twice the edge count for
// undirected graphs).
func (g *Graph) NumArcs() int { return g.m }

// NumEdges returns the number of logical edges: arcs for directed graphs,
// arc pairs for undirected ones.
func (g *Graph) NumEdges() int {
	if g.Undirected {
		return g.m / 2
	}
	return g.m
}

// AddNode appends a new isolated vertex and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return NodeID(len(g.out) - 1)
}

func (g *Graph) checkNodes(u, v NodeID) error {
	n := NodeID(len(g.out))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("%w: (%d,%d) with %d nodes", ErrBadNode, u, v, n)
	}
	if u == v {
		return fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
	}
	return nil
}

// AddEdge inserts the edge (u, v); for undirected graphs the reverse arc is
// inserted too. It returns ErrDuplicateEdge if the arc exists, ErrSelfLoop
// for u == v, and ErrBadNode for out-of-range IDs. State is unchanged on
// error.
func (g *Graph) AddEdge(u, v NodeID) error {
	if err := g.checkNodes(u, v); err != nil {
		return err
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
	}
	g.addArc(u, v)
	if g.Undirected {
		g.addArc(v, u)
	}
	return nil
}

func (g *Graph) addArc(u, v NodeID) {
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
}

// RemoveEdge deletes the edge (u, v) (both arcs for undirected graphs). It
// returns ErrMissingEdge when absent; state is unchanged on error.
//
// Each list has the arc's slot filled with its last entry. In an
// undirected graph in[x] receives every append and swap-remove out[x]
// does, so the two are equal entry for entry and one scan per endpoint
// finds the arc's slot in both.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if err := g.checkNodes(u, v); err != nil {
		return err
	}
	i := slices.Index(g.out[u], v)
	if i < 0 {
		return fmt.Errorf("%w: (%d,%d)", ErrMissingEdge, u, v)
	}
	if g.Undirected {
		j := slices.Index(g.out[v], u)
		g.out[u], g.in[u] = removeAt(g.out[u], i), removeAt(g.in[u], i)
		g.out[v], g.in[v] = removeAt(g.out[v], j), removeAt(g.in[v], j)
		g.m -= 2
		return nil
	}
	g.out[u] = removeAt(g.out[u], i)
	g.in[v] = removeAt(g.in[v], slices.Index(g.in[v], u))
	g.m--
	return nil
}

// removeAt swap-removes list[i].
func removeAt(list []NodeID, i int) []NodeID {
	last := len(list) - 1
	list[i] = list[last]
	return list[:last]
}

// HasEdge reports whether the arc (u, v) exists, scanning the shorter of
// out[u] and in[v]; out-of-range IDs have no arcs.
func (g *Graph) HasEdge(u, v NodeID) bool {
	n := NodeID(len(g.out))
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	if len(g.out[u]) <= len(g.in[v]) {
		return slices.Contains(g.out[u], v)
	}
	return slices.Contains(g.in[v], u)
}

// OutNeighbors returns a read-only view of u's out-neighbors. The slice is
// invalidated by mutations; callers needing stability must copy.
func (g *Graph) OutNeighbors(u NodeID) []NodeID { return g.out[u] }

// InNeighbors returns a read-only view of u's in-neighbors (the aggregation
// neighborhood N(u) in the paper's notation).
func (g *Graph) InNeighbors(u NodeID) []NodeID { return g.in[u] }

// OutDegree returns the number of out-arcs of u.
func (g *Graph) OutDegree(u NodeID) int { return len(g.out[u]) }

// InDegree returns the number of in-arcs of u (|N(u)|).
func (g *Graph) InDegree(u NodeID) int { return len(g.in[u]) }

// Clone returns a deep copy of g, each direction's lists packed into one
// slab in the same order.
func (g *Graph) Clone() *Graph {
	return &Graph{Undirected: g.Undirected, out: cloneLists(g.out, g.m), in: cloneLists(g.in, g.m), m: g.m}
}

func cloneLists(lists [][]NodeID, total int) [][]NodeID {
	slab := make([]NodeID, 0, total)
	c := make([][]NodeID, len(lists))
	for i, l := range lists {
		if len(l) > 0 {
			lo := len(slab)
			slab = append(slab, l...)
			c[i] = slab[lo:len(slab):len(slab)]
		}
	}
	return c
}

// Edges returns all arcs sorted by (src, dst), for deterministic iteration
// in tests and serialisation.
func (g *Graph) Edges() [][2]NodeID {
	es := make([][2]NodeID, 0, g.m)
	for u := range g.out {
		for _, v := range g.out[u] {
			es = append(es, [2]NodeID{NodeID(u), v})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// InduceSubset returns the subgraph induced by ids (which must be
// distinct); node ids[i] becomes node i in the result. Inducing over a
// random permutation prefix models unbiased vertex removal.
func (g *Graph) InduceSubset(ids []NodeID) *Graph {
	remap := make(map[NodeID]NodeID, len(ids))
	for i, id := range ids {
		if _, dup := remap[id]; dup {
			panic(fmt.Sprintf("graph: InduceSubset: duplicate id %d", id))
		}
		remap[id] = NodeID(i)
	}
	// An undirected edge is listed once, from its lower new endpoint (the
	// first to reach it); FromPairs adds the mirror arc.
	var pairs [][2]NodeID
	for i, id := range ids {
		for _, v := range g.out[id] {
			nv, ok := remap[v]
			if !ok || (g.Undirected && nv < NodeID(i)) {
				continue
			}
			pairs = append(pairs, [2]NodeID{NodeID(i), nv})
		}
	}
	out, err := FromPairs(len(ids), g.Undirected, pairs)
	if err != nil {
		panic("graph: InduceSubset: " + err.Error())
	}
	return out
}

// MaxInDegree returns the largest in-degree, used to size scratch buffers.
func (g *Graph) MaxInDegree() int {
	m := 0
	for u := range g.in {
		if d := len(g.in[u]); d > m {
			m = d
		}
	}
	return m
}
