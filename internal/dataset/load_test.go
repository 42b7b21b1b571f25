package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// Load bulk-builds the graph, and must reproduce, list for list and in
// order, the per-edge AddEdge loop over the file's edges it replaces:
// sum/mean rounding and every count follow adjacency order.
func TestLoadMatchesAddEdge(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := GenerateRMAT(rng, 80, 400, DefaultRMAT)
		for i := 0; i < 6; i++ {
			if err := graph.RandomDelta(rng, g, 40).Apply(g); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, g, NewFeatures(rng, g.NumNodes(), 4)); err != nil {
			t.Fatal(err)
		}
		got, _, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.NewUndirected(g.NumNodes())
		for _, e := range g.Edges() {
			if e[0] < e[1] {
				if err := want.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for u := graph.NodeID(0); int(u) < want.NumNodes(); u++ {
			if !slices.Equal(got.OutNeighbors(u), want.OutNeighbors(u)) ||
				!slices.Equal(got.InNeighbors(u), want.InNeighbors(u)) {
				t.Fatalf("seed %d node %d: out %v in %v, want out %v in %v", seed, u,
					got.OutNeighbors(u), got.InNeighbors(u), want.OutNeighbors(u), want.InNeighbors(u))
			}
		}
	}
}

// snapshot encodes a file by hand: a header, the given edges, and
// nodes×featLen zero features when withFeats is set.
func snapshot(nodes, edges, featLen uint32, pairs [][2]uint32, withFeats bool) []byte {
	b := []byte(magic)
	for _, h := range []uint32{version, nodes, edges, featLen} {
		b = binary.LittleEndian.AppendUint32(b, h)
	}
	for _, p := range pairs {
		b = binary.LittleEndian.AppendUint32(b, p[0])
		b = binary.LittleEndian.AppendUint32(b, p[1])
	}
	if withFeats {
		b = append(b, make([]byte, 4*nodes*featLen)...)
	}
	return b
}

// corruptSnapshots are files Load must refuse with the named error; the
// last ones claim far more than they hold.
func corruptSnapshots() []struct {
	name string
	data []byte
	want error
} {
	edges := func(ps ...[2]uint32) [][2]uint32 { return ps }
	return []struct {
		name string
		data []byte
		want error
	}{
		{"duplicate edge", snapshot(4, 3, 1, edges([2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{0, 1}), true), graph.ErrDuplicateEdge},
		{"reversed duplicate", snapshot(4, 2, 1, edges([2]uint32{0, 1}, [2]uint32{1, 0}), true), graph.ErrDuplicateEdge},
		{"self-loop", snapshot(4, 2, 1, edges([2]uint32{0, 1}, [2]uint32{2, 2}), true), graph.ErrSelfLoop},
		{"id past nodes", snapshot(4, 2, 1, edges([2]uint32{0, 1}, [2]uint32{1, 4}), true), graph.ErrBadNode},
		{"id past int32", snapshot(4, 1, 1, edges([2]uint32{0, 1 << 31}), true), graph.ErrBadNode},
		{"truncated edges", snapshot(4, 3, 1, edges([2]uint32{0, 1}, [2]uint32{1, 2}), false), io.ErrUnexpectedEOF},
		{"20-byte header", snapshot(1<<28-1, 0, 1, nil, false), io.ErrUnexpectedEOF},
		{"edge count only", snapshot(4, 1<<28, 1, nil, false), io.ErrUnexpectedEOF},
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	for _, c := range corruptSnapshots() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Load(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
		// Nothing is sized by a count before its bytes are read: a few
		// bounded first chunks, never the header's gigabytes.
		if a := after.TotalAlloc - before.TotalAlloc; a > 32<<20 {
			t.Errorf("%s: allocated %d MiB", c.name, a>>20)
		}
	}
	// Zero-width features back no node, so they are refused outright.
	if _, _, err := Load(bytes.NewReader(snapshot(1<<20, 0, 0, nil, false))); err == nil {
		t.Error("featLen 0 accepted")
	}
}

// BenchmarkLoad reads back one generated RMAT snapshot (4 096 nodes,
// 65 536 edges, 16 features): the edge section is read in bulk and the
// graph built by one graph.FromPairs pass.
func BenchmarkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := GenerateRMAT(rng, 4096, 65536, DefaultRMAT)
	var buf bytes.Buffer
	if err := Save(&buf, g, NewFeatures(rng, g.NumNodes(), 16)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
