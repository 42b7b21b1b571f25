package main

import (
	"math/rand"
	"strconv"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/tensor"
)

// The stream generator. Each connection owns a pool of edge slots — half of
// them edges of the bootstrap graph, half absent pairs — and a pool of
// nodes, both disjoint from every other connection's. One edge change
// toggles one slot: a present edge is deleted, an absent one inserted. This
// gives three properties the benchmark depends on:
//
//   - the server never rejects a change: only the owning connection touches
//     a slot, it sends one request at a time, and it tracks the slot's state;
//   - the final graph does not depend on how the server interleaves the
//     connections, so a from-scratch oracle can be computed afterwards;
//   - the stream is steady: the number of present slots reverts to half the
//     pool, so the graph neither grows nor shrinks across segments.

const (
	slotsPerConn     = 1 << 16 // edge slots owned by one connection
	featNodesPerConn = 1024    // nodes whose features one connection rewrites
	featNodesPerReq  = 4       // nodes in one /v1/features request
)

type slot struct {
	u, v    graph.NodeID
	initial bool // present in the bootstrap graph
	present bool
}

// request is one generated mutation: the wire body plus the same change in
// engine terms, for the layer probe and the oracle.
type request struct {
	path  string
	body  []byte
	delta graph.Delta
	vups  []inkstream.VertexUpdate
}

// stream generates the requests of one connection.
type stream struct {
	rng       *rand.Rand
	slots     []slot
	order     []int // permutation of slot indices, reshuffled per request
	deltaG    int
	featEvery int // every featEvery-th request rewrites features; 0 = never
	featDim   int
	featNodes []graph.NodeID
	sent      int
	// feats holds the last features this connection wrote, by node.
	feats map[graph.NodeID]tensor.Vector
}

// newStreams builds one stream per connection over g. The same (g, seed)
// always yields the same streams.
func newStreams(g *graph.Graph, seed int64, conns, deltaG, featEvery, featDim int) []*stream {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()

	var edges [][2]graph.NodeID
	for _, a := range g.Edges() {
		if a[0] < a[1] {
			edges = append(edges, a)
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	half := slotsPerConn / 2
	if max := len(edges) / (2 * conns); half > max {
		half = max
	}
	used := make(map[[2]graph.NodeID]bool)
	nodePerm := rng.Perm(n)
	perConn := featNodesPerConn
	if max := n / conns; perConn > max {
		perConn = max
	}

	streams := make([]*stream, conns)
	for c := range streams {
		s := &stream{
			rng:       rand.New(rand.NewSource(seed*1000 + int64(c) + 1)),
			deltaG:    deltaG,
			featEvery: featEvery,
			featDim:   featDim,
			feats:     make(map[graph.NodeID]tensor.Vector),
		}
		for _, e := range edges[c*half : (c+1)*half] {
			s.slots = append(s.slots, slot{u: e[0], v: e[1], initial: true, present: true})
		}
		// Absent pairs: u is an endpoint of a random edge, so hubs are drawn
		// in proportion to their degree, as real insertions would hit them.
		for len(s.slots) < 2*half {
			u := edges[rng.Intn(len(edges))][rng.Intn(2)]
			v := graph.NodeID(rng.Intn(n))
			if u > v {
				u, v = v, u
			}
			k := [2]graph.NodeID{u, v}
			if u == v || g.HasEdge(u, v) || used[k] {
				continue
			}
			used[k] = true
			s.slots = append(s.slots, slot{u: u, v: v})
		}
		s.order = make([]int, len(s.slots))
		for i := range s.order {
			s.order[i] = i
		}
		for _, id := range nodePerm[c*perConn : (c+1)*perConn] {
			s.featNodes = append(s.featNodes, graph.NodeID(id))
		}
		streams[c] = s
	}
	return streams
}

// next generates the connection's next request and records its effect.
func (s *stream) next() request {
	s.sent++
	if s.featEvery > 0 && s.sent%s.featEvery == 0 {
		return s.nextFeatures()
	}
	k := s.deltaG
	if k > len(s.order) {
		k = len(s.order)
	}
	body := append(make([]byte, 0, 16+40*k), `{"changes":[`...)
	delta := make(graph.Delta, k)
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(len(s.order)-i)
		s.order[i], s.order[j] = s.order[j], s.order[i]
		sl := &s.slots[s.order[i]]
		sl.present = !sl.present
		delta[i] = graph.EdgeChange{U: sl.u, V: sl.v, Insert: sl.present}
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"u":`...)
		body = strconv.AppendInt(body, int64(sl.u), 10)
		body = append(body, `,"v":`...)
		body = strconv.AppendInt(body, int64(sl.v), 10)
		body = append(body, `,"insert":`...)
		body = strconv.AppendBool(body, sl.present)
		body = append(body, '}')
	}
	body = append(body, "]}"...)
	return request{path: "/v1/update", body: body, delta: delta}
}

func (s *stream) nextFeatures() request {
	body := append(make([]byte, 0, 64+featNodesPerReq*12*s.featDim), `{"updates":[`...)
	vups := make([]inkstream.VertexUpdate, featNodesPerReq)
	for i := range vups {
		j := i + s.rng.Intn(len(s.featNodes)-i)
		s.featNodes[i], s.featNodes[j] = s.featNodes[j], s.featNodes[i]
		node := s.featNodes[i]
		x := tensor.NewVector(s.featDim)
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"node":`...)
		body = strconv.AppendInt(body, int64(node), 10)
		body = append(body, `,"x":[`...)
		for d := range x {
			x[d] = s.rng.Float32()*2 - 1
			if d > 0 {
				body = append(body, ',')
			}
			// The shortest float32 form decodes to the same bits, so the
			// oracle's copy of the features equals the server's.
			body = strconv.AppendFloat(body, float64(x[d]), 'g', -1, 32)
		}
		body = append(body, "]}"...)
		vups[i] = inkstream.VertexUpdate{Node: node, X: x}
		s.feats[node] = x
	}
	body = append(body, "]}"...)
	return request{path: "/v1/features", body: body, vups: vups}
}

// finalState applies everything the streams generated to g and x, which
// must be the bootstrap graph and features: the state a correct server
// holds once every generated request is acknowledged.
func finalState(streams []*stream, g *graph.Graph, x *tensor.Matrix) error {
	for _, s := range streams {
		for _, sl := range s.slots {
			var err error
			switch {
			case sl.present && !sl.initial:
				err = g.AddEdge(sl.u, sl.v)
			case !sl.present && sl.initial:
				err = g.RemoveEdge(sl.u, sl.v)
			}
			if err != nil {
				return err
			}
		}
		for node, row := range s.feats {
			x.SetRow(int(node), row)
		}
	}
	return nil
}
