package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Binary snapshot format (little-endian):
//
//	magic "INKS" | version u32 | nodes u32 | edges u32 | featLen u32
//	edges  : edges × (u u32, v u32)   — one representative arc per edge
//	feats  : nodes × featLen × f32    — featLen ≥ 1
//
// Only undirected graphs are persisted; that is all the benchmark datasets
// need.

const (
	magic   = "INKS"
	version = 1
)

// Save writes an undirected graph and its features to w.
func Save(w io.Writer, g *graph.Graph, f *Features) error {
	if !g.Undirected {
		return fmt.Errorf("dataset: Save supports undirected graphs only")
	}
	if f.X.Rows != g.NumNodes() {
		return fmt.Errorf("dataset: feature rows %d != nodes %d", f.X.Rows, g.NumNodes())
	}
	if f.Dim() == 0 {
		return fmt.Errorf("dataset: zero-width features")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := []uint32{version, uint32(g.NumNodes()), uint32(g.NumEdges()), uint32(f.Dim())}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	written := 0
	for _, e := range g.Edges() {
		if e[0] >= e[1] {
			continue // one representative per undirected edge
		}
		if err := binary.Write(bw, binary.LittleEndian, [2]uint32{uint32(e[0]), uint32(e[1])}); err != nil {
			return err
		}
		written++
	}
	if written != g.NumEdges() {
		return fmt.Errorf("dataset: wrote %d edges, expected %d", written, g.NumEdges())
	}
	if err := binary.Write(bw, binary.LittleEndian, f.X.Data); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save. The graph is bulk-built with
// graph.FromPairs, so its adjacency lists are in the order AddEdge-ing the
// stored edges in file order gives. Nothing is sized by a header count
// before the bytes behind it are read: the edge and feature sections are
// read first, and every node owns at least one stored feature value.
func Load(r io.Reader) (*graph.Graph, *Features, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, nil, fmt.Errorf("dataset: bad magic %q", m)
	}
	var hdr [4]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if hdr[0] != version {
		return nil, nil, fmt.Errorf("dataset: unsupported version %d", hdr[0])
	}
	nodes, edges, featLen := int(hdr[1]), int(hdr[2]), int(hdr[3])
	// The caps keep IDs inside NodeID and products inside int; memory is
	// bounded by the reads below, not by these counts.
	if nodes > 1<<28 || edges > 1<<28 || featLen == 0 || featLen > 1<<20 ||
		int64(nodes)*int64(featLen) > 1<<28 {
		return nil, nil, fmt.Errorf("dataset: implausible header (%d nodes, %d edges, feat %d)", nodes, edges, featLen)
	}
	pairs, err := graph.ReadPairs(br, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: edge section: %w", err)
	}
	data, err := tensor.ReadFloat32s(br, nodes*featLen)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading features: %w", err)
	}
	g, err := graph.FromPairs(nodes, true, pairs)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: edge section: %w", err)
	}
	return g, &Features{X: &tensor.Matrix{Rows: nodes, Cols: featLen, Data: data}}, nil
}

// SaveFile writes a snapshot to path, creating or truncating it.
func SaveFile(path string, g *graph.Graph, f *Features) (err error) {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}()
	return Save(file, g, f)
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*graph.Graph, *Features, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	return Load(file)
}
