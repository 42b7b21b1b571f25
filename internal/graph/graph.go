// Package graph provides the dynamic-graph substrate for InkStream: an
// adjacency-list store supporting streaming edge insertion and removal,
// CSR freezing for fast full-graph inference, k-hop affected-area
// computation, and delta-batch (ΔG) generation mimicking the T-GCN style
// random edge creation/deletion streams used in the paper's evaluation.
package graph

import (
	"errors"
	"fmt"
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
type Graph struct {
	// Undirected records whether AddEdge/RemoveEdge mirror every arc.
	Undirected bool

	out [][]NodeID
	in  [][]NodeID
	// edges indexes every arc by its position in both adjacency lists, so
	// removal is O(1) (plus the map ops) instead of an O(deg) scan — the
	// difference between constant-time and milliseconds when deleting edges
	// incident to hub nodes of power-law graphs.
	edges map[arcKey]arcPos
	m     int // arc count
}

type arcKey uint64

// arcPos locates one arc (u,v): out is its index in out[u], in its index
// in in[v]. Maintained by swap-remove fixups in removeArc.
type arcPos struct{ out, in int32 }

func key(u, v NodeID) arcKey { return arcKey(uint64(uint32(u))<<32 | uint64(uint32(v))) }

// New returns an empty directed graph with n nodes.
func New(n int) *Graph {
	return &Graph{
		out:   make([][]NodeID, n),
		in:    make([][]NodeID, n),
		edges: make(map[arcKey]arcPos),
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
	if _, ok := g.edges[key(u, v)]; ok {
		return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
	}
	g.addArc(u, v)
	if g.Undirected {
		g.addArc(v, u)
	}
	return nil
}

func (g *Graph) addArc(u, v NodeID) {
	g.edges[key(u, v)] = arcPos{out: int32(len(g.out[u])), in: int32(len(g.in[v]))}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
}

// RemoveEdge deletes the edge (u, v) (both arcs for undirected graphs). It
// returns ErrMissingEdge when absent; state is unchanged on error.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if err := g.checkNodes(u, v); err != nil {
		return err
	}
	if _, ok := g.edges[key(u, v)]; !ok {
		return fmt.Errorf("%w: (%d,%d)", ErrMissingEdge, u, v)
	}
	g.removeArc(u, v)
	if g.Undirected {
		g.removeArc(v, u)
	}
	return nil
}

// removeArc deletes (u,v) in O(1) amortised: the arc-position index gives
// its slot in both adjacency lists directly, and swap-remove fills each
// slot with the list's last arc (whose index entry is patched). Neighbor
// order is not meaningful, so the perturbation is harmless.
func (g *Graph) removeArc(u, v NodeID) {
	k := key(u, v)
	pos, ok := g.edges[k]
	if !ok {
		panic("graph: internal inconsistency: removing arc missing from edge index")
	}
	delete(g.edges, k)

	outs := g.out[u]
	last := len(outs) - 1
	if int(pos.out) != last {
		moved := outs[last]
		outs[pos.out] = moved
		mk := key(u, moved)
		mp := g.edges[mk]
		mp.out = pos.out
		g.edges[mk] = mp
	}
	g.out[u] = outs[:last]

	ins := g.in[v]
	last = len(ins) - 1
	if int(pos.in) != last {
		moved := ins[last]
		ins[pos.in] = moved
		mk := key(moved, v)
		mp := g.edges[mk]
		mp.in = pos.in
		g.edges[mk] = mp
	}
	g.in[v] = ins[:last]
	g.m--
}

// HasEdge reports whether the arc (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.edges[key(u, v)]
	return ok
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

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Undirected: g.Undirected,
		out:        make([][]NodeID, len(g.out)),
		in:         make([][]NodeID, len(g.in)),
		edges:      make(map[arcKey]arcPos, len(g.edges)),
		m:          g.m,
	}
	for i := range g.out {
		c.out[i] = append([]NodeID(nil), g.out[i]...)
		c.in[i] = append([]NodeID(nil), g.in[i]...)
	}
	for k, p := range g.edges {
		c.edges[k] = p
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
	var out *Graph
	if g.Undirected {
		out = NewUndirected(len(ids))
	} else {
		out = New(len(ids))
	}
	remap := make(map[NodeID]NodeID, len(ids))
	for i, id := range ids {
		if _, dup := remap[id]; dup {
			panic(fmt.Sprintf("graph: InduceSubset: duplicate id %d", id))
		}
		remap[id] = NodeID(i)
	}
	for i, id := range ids {
		for _, v := range g.out[id] {
			nv, ok := remap[v]
			if !ok || out.HasEdge(NodeID(i), nv) {
				continue
			}
			if err := out.AddEdge(NodeID(i), nv); err != nil {
				panic("graph: InduceSubset: " + err.Error())
			}
		}
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
