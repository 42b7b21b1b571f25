package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// FromPairs returns the graph that AddEdge-ing pairs in order into New(n)
// (NewUndirected(n) when undirected) builds, every adjacency list in the
// same order, in one O(n + m) pass: a degree count sizes each list exactly
// and the arcs are placed in pair order. It returns AddEdge's sentinels:
// ErrBadNode or ErrSelfLoop for the first such pair, else ErrDuplicateEdge
// for a repeated arc, the reversed pair of an undirected edge included.
func FromPairs(n int, undirected bool, pairs [][2]NodeID) (*Graph, error) {
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	for i, p := range pairs {
		u, v := p[0], p[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("%w: pair %d (%d,%d) with %d nodes", ErrBadNode, i, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("%w: pair %d (%d,%d)", ErrSelfLoop, i, u, v)
		}
		outDeg[u]++
		inDeg[v]++
		if undirected {
			outDeg[v]++
			inDeg[u]++
		}
	}
	arcs := len(pairs)
	if undirected {
		arcs *= 2
	}
	g := &Graph{Undirected: undirected, out: carve(outDeg, arcs), in: carve(inDeg, arcs), m: arcs}
	for _, p := range pairs {
		u, v := p[0], p[1]
		g.out[u] = append(g.out[u], v)
		g.in[v] = append(g.in[v], u)
		if undirected {
			g.out[v] = append(g.out[v], u)
			g.in[u] = append(g.in[u], v)
		}
	}
	// A repeated arc is a repeated entry in one out-list: stamp each
	// list's entries with the list's owner (the degree count is spent).
	stamp := outDeg
	clear(stamp)
	for u, list := range g.out {
		for _, v := range list {
			if stamp[v] == int32(u)+1 {
				return nil, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
			}
			stamp[v] = int32(u) + 1
		}
	}
	return g, nil
}

// carve cuts one slab of total arcs into empty lists of capacity deg[i]
// (nil for degree 0): appends fill the slab in place, and a later growth
// past a list's own capacity reallocates that list alone.
func carve(deg []int32, total int) [][]NodeID {
	slab := make([]NodeID, total)
	lists := make([][]NodeID, len(deg))
	off := 0
	for i, d := range deg {
		if d > 0 {
			lists[i] = slab[off : off : off+int(d)]
			off += int(d)
		}
	}
	return lists
}

// ReadPairs reads m pairs encoded as two little-endian uint32 node IDs
// each, the edge section of the dataset and bundle formats. Past a first
// buffer of at most 2²⁰ pairs it grows only as bytes arrive, so a corrupt
// count costs an error at the end of the input, not an allocation sized by
// the count.
func ReadPairs(r io.Reader, m int) ([][2]NodeID, error) {
	const chunk = 1 << 13 // pairs per read
	buf := make([]byte, 8*min(m, chunk))
	pairs := make([][2]NodeID, 0, min(m, 1<<20))
	for len(pairs) < m {
		k := min(m-len(pairs), chunk)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("graph: reading pair %d of %d: %w", len(pairs), m, err)
		}
		if cap(pairs)-len(pairs) < k {
			pairs = slices.Grow(pairs, min(m, 2*cap(pairs))-len(pairs))
		}
		for b := buf[:8*k]; len(b) > 0; b = b[8:] {
			pairs = append(pairs, [2]NodeID{
				NodeID(binary.LittleEndian.Uint32(b)),
				NodeID(binary.LittleEndian.Uint32(b[4:])),
			})
		}
	}
	return pairs, nil
}
