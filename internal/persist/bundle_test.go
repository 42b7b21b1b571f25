package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
)

// LoadBundle bulk-builds the graph, and must reproduce, list for list and
// in order, the per-edge AddEdge loop over the stored edges it replaces.
func TestLoadBundleMatchesAddEdge(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		g := graph.New(50)
		g.Undirected = undirected
		for g.NumEdges() < 200 {
			u, v := graph.NodeID(rng.Intn(50)), graph.NodeID(rng.Intn(50))
			if u != v && !g.HasEdge(u, v) && !g.HasEdge(v, u) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 6; i++ {
			if err := graph.RandomDelta(rng, g, 30).Apply(g); err != nil {
				t.Fatal(err)
			}
		}
		m := gnn.NewGCN(rng, 4, 4, gnn.NewAggregator(gnn.AggMax))
		var buf bytes.Buffer
		if err := SaveBundle(&buf, g, m, gnn.NewState(m, g.NumNodes())); err != nil {
			t.Fatal(err)
		}
		got, _, _, err := LoadBundle(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.New(g.NumNodes())
		want.Undirected = undirected
		for _, e := range g.Edges() {
			if !undirected || e[0] < e[1] {
				if err := want.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got.Undirected != undirected || got.NumArcs() != want.NumArcs() {
			t.Fatalf("undirected=%v: loaded %v/%d arcs, want %d", undirected, got.Undirected, got.NumArcs(), want.NumArcs())
		}
		for u := graph.NodeID(0); int(u) < want.NumNodes(); u++ {
			if !slices.Equal(got.OutNeighbors(u), want.OutNeighbors(u)) ||
				!slices.Equal(got.InNeighbors(u), want.InNeighbors(u)) {
				t.Fatalf("undirected=%v node %d: out %v in %v, want out %v in %v", undirected, u,
					got.OutNeighbors(u), got.InNeighbors(u), want.OutNeighbors(u), want.InNeighbors(u))
			}
		}
	}
}

func TestLoadBundleRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(rng, 10, 20)
	m := gnn.NewGCN(rng, 4, 4, gnn.NewAggregator(gnn.AggMax))
	var buf bytes.Buffer
	if err := SaveBundle(&buf, g, m, gnn.NewState(m, g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// magic(4) + version(4) + undirected(1) + nodes(4) + edges(4), then the
	// edges as (u32, u32) pairs.
	const nodesAt, edgesAt = 9, 17
	withPair := func(i int, u, v uint32) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[edgesAt+8*i:], u)
		binary.LittleEndian.PutUint32(b[edgesAt+8*i+4:], v)
		return b
	}
	u0 := binary.LittleEndian.Uint32(valid[edgesAt:])
	v0 := binary.LittleEndian.Uint32(valid[edgesAt+4:])
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[nodesAt:], 1<<28-1)
	// The state section: magic(4) + version(4) + layers(4), then H[0]'s
	// rows and cols. 2²⁶ rows of 4 columns is a 1 GiB claim.
	hugeRows := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeRows[bytes.LastIndex(valid, []byte(magicState))+12:], 1<<26)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"duplicate edge", withPair(1, u0, v0), graph.ErrDuplicateEdge},
		{"reversed duplicate", withPair(1, v0, u0), graph.ErrDuplicateEdge},
		{"self-loop", withPair(1, 3, 3), graph.ErrSelfLoop},
		{"id past nodes", withPair(1, 0, 10), graph.ErrBadNode},
		{"truncated edges", valid[:edgesAt+8*5+3], io.ErrUnexpectedEOF},
		// The node count is backed only by the state section, which is
		// read before anything is sized by it (want nil: any error).
		{"huge node count", huge, nil},
		{"huge node count, header only", huge[:edgesAt], io.ErrUnexpectedEOF},
		{"huge state matrix", hugeRows, io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := LoadBundle(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a > 32<<20 {
			t.Errorf("%s: allocated %d MiB", c.name, a>>20)
		}
	}
}
