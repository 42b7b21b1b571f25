// Package persist serialises trained models, inference states and whole
// engine bundles to a compact binary format, so a long-running inference
// service (cmd/inkserve) can restart without repeating the initial
// full-graph inference, and trained models from internal/train can be
// shipped between processes.
//
// Three artifact kinds, each with its own magic:
//
//	INKM — a gnn.Model (layer types, weights, aggregators, norms)
//	INKT — a gnn.State (the m/α/h checkpoints)
//	INKB — a bundle: graph + model + state, enough to resume an engine
//
// All integers are little-endian; matrices are row-major float32.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

const (
	magicModel  = "INKM"
	magicState  = "INKT"
	magicBundle = "INKB"
	version     = 1

	layerGCN  = 0
	layerSAGE = 1
	layerGIN  = 2

	// maxElems caps declared sizes so corrupt headers fail cleanly.
	maxElems = 1 << 28
)

// ---------------------------------------------------------------------------
// Primitive encoders

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) u32(v uint32) {
	if w.err == nil {
		w.err = binary.Write(w.w, binary.LittleEndian, v)
	}
}

func (w *writer) f32(v float32) {
	if w.err == nil {
		w.err = binary.Write(w.w, binary.LittleEndian, v)
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) vec(v tensor.Vector) {
	w.u32(uint32(len(v)))
	if w.err == nil {
		w.err = binary.Write(w.w, binary.LittleEndian, []float32(v))
	}
}

func (w *writer) mat(m *tensor.Matrix) {
	w.u32(uint32(m.Rows))
	w.u32(uint32(m.Cols))
	if w.err == nil {
		w.err = binary.Write(w.w, binary.LittleEndian, m.Data)
	}
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.err = err
	return b
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var v uint32
	r.err = binary.Read(r.r, binary.LittleEndian, &v)
	return v
}

func (r *reader) f32() float32 {
	if r.err != nil {
		return 0
	}
	var v float32
	r.err = binary.Read(r.r, binary.LittleEndian, &v)
	return v
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<16 {
		r.err = fmt.Errorf("persist: implausible string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	_, r.err = io.ReadFull(r.r, buf)
	return string(buf)
}

func (r *reader) vec() tensor.Vector {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n > maxElems {
		r.err = fmt.Errorf("persist: implausible vector length %d", n)
		return nil
	}
	var v []float32
	v, r.err = tensor.ReadFloat32s(r.r, int(n))
	return v
}

func (r *reader) mat() *tensor.Matrix {
	rows, cols := int(r.u32()), int(r.u32())
	if r.err != nil {
		return nil
	}
	// Check each dimension before the product: two huge u32s can overflow
	// even int64 multiplication.
	if rows < 0 || cols < 0 || rows > maxElems || cols > maxElems ||
		int64(rows)*int64(cols) > maxElems {
		r.err = fmt.Errorf("persist: implausible matrix %dx%d", rows, cols)
		return nil
	}
	var data []float32
	if data, r.err = tensor.ReadFloat32s(r.r, rows*cols); r.err != nil {
		return nil
	}
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: data}
}

func (r *reader) magic(want string) {
	if r.err != nil {
		return
	}
	var b [4]byte
	if _, r.err = io.ReadFull(r.r, b[:]); r.err != nil {
		return
	}
	if string(b[:]) != want {
		r.err = fmt.Errorf("persist: bad magic %q, want %q", b, want)
	}
	if v := r.u32(); r.err == nil && v != version {
		r.err = fmt.Errorf("persist: unsupported version %d", v)
	}
}

// ---------------------------------------------------------------------------
// Model

// SaveModel serialises a model built from the layer types of package gnn.
func SaveModel(out io.Writer, m *gnn.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	w := &writer{w: bufio.NewWriter(out)}
	w.w.WriteString(magicModel)
	w.u32(version)
	w.str(m.Name)
	w.u32(uint32(len(m.Layers)))
	for _, layer := range m.Layers {
		if err := writeLayer(w, layer); err != nil {
			return err
		}
	}
	if m.Norms == nil {
		w.u8(0)
	} else {
		w.u8(1)
		for _, n := range m.Norms {
			writeNorm(w, n)
		}
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func writeLayer(w *writer, layer gnn.Layer) error {
	switch l := layer.(type) {
	case *gnn.GCNLayer:
		w.u8(layerGCN)
		w.str(l.Name())
		w.u8(uint8(l.Agg().Kind()))
		w.u8(uint8(l.Act()))
		w.mat(l.W)
		w.vec(l.B)
	case *gnn.SAGELayer:
		w.u8(layerSAGE)
		w.str(l.Name())
		w.u8(uint8(l.Agg().Kind()))
		w.u8(uint8(l.Act()))
		w.mat(l.W1)
		w.mat(l.W2)
		w.vec(l.B)
	case *gnn.GINLayer:
		w.u8(layerGIN)
		w.str(l.Name())
		w.u8(uint8(l.Agg().Kind()))
		w.u8(uint8(l.Act()))
		w.f32(l.Eps)
		w.mat(l.W1)
		w.mat(l.W2)
		w.vec(l.B1)
		w.vec(l.B2)
	default:
		return fmt.Errorf("persist: unsupported layer type %T", layer)
	}
	return w.err
}

func writeNorm(w *writer, n *gnn.GraphNorm) {
	if n == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	flags := uint8(0)
	if n.IsFrozen {
		flags |= 1
	}
	if n.Mu != nil {
		flags |= 2
	}
	w.u8(flags)
	w.f32(n.Eps)
	w.vec(n.Gamma)
	w.vec(n.Beta)
	if n.Mu != nil {
		w.vec(n.Mu)
		w.vec(n.Sigma)
	}
}

// LoadModel reads a model written by SaveModel.
func LoadModel(in io.Reader) (*gnn.Model, error) {
	return loadModelR(&reader{r: bufio.NewReader(in)})
}

func loadModelR(r *reader) (*gnn.Model, error) {
	r.magic(magicModel)
	name := r.str()
	nLayers := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if nLayers <= 0 || nLayers > 1024 {
		return nil, fmt.Errorf("persist: implausible layer count %d", nLayers)
	}
	m := &gnn.Model{Name: name}
	for i := 0; i < nLayers; i++ {
		layer, err := readLayer(r)
		if err != nil {
			return nil, err
		}
		m.Layers = append(m.Layers, layer)
	}
	if r.u8() == 1 {
		for i := 0; i < nLayers; i++ {
			n, err := readNorm(r)
			if err != nil {
				return nil, err
			}
			m.Norms = append(m.Norms, n)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("persist: loaded model invalid: %w", err)
	}
	return m, nil
}

func readLayer(r *reader) (gnn.Layer, error) {
	typ := r.u8()
	name := r.str()
	aggKind := gnn.AggKind(r.u8())
	actKind := gnn.ActKind(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	if aggKind < gnn.AggMax || aggKind > gnn.AggSum {
		return nil, fmt.Errorf("persist: bad aggregator %d", aggKind)
	}
	if actKind != gnn.ActIdentity && actKind != gnn.ActReLU {
		return nil, fmt.Errorf("persist: bad activation %d", actKind)
	}
	agg := gnn.NewAggregator(aggKind)
	switch typ {
	case layerGCN:
		w := r.mat()
		b := r.vec()
		if r.err != nil {
			return nil, r.err
		}
		return gnn.RestoreGCNLayer(name, w, b, agg, actKind), nil
	case layerSAGE:
		w1 := r.mat()
		w2 := r.mat()
		b := r.vec()
		if r.err != nil {
			return nil, r.err
		}
		return gnn.RestoreSAGELayer(name, w1, w2, b, agg, actKind), nil
	case layerGIN:
		eps := r.f32()
		w1 := r.mat()
		w2 := r.mat()
		b1 := r.vec()
		b2 := r.vec()
		if r.err != nil {
			return nil, r.err
		}
		return gnn.RestoreGINLayer(name, eps, w1, w2, b1, b2, agg, actKind), nil
	}
	return nil, fmt.Errorf("persist: unknown layer type %d", typ)
}

func readNorm(r *reader) (*gnn.GraphNorm, error) {
	if r.u8() == 0 {
		return nil, r.err
	}
	flags := r.u8()
	eps := r.f32()
	gamma := r.vec()
	beta := r.vec()
	n := &gnn.GraphNorm{Gamma: gamma, Beta: beta, Eps: eps, IsFrozen: flags&1 != 0}
	if flags&2 != 0 {
		n.Mu = r.vec()
		n.Sigma = r.vec()
	}
	if r.err != nil {
		return nil, r.err
	}
	if n.IsFrozen && n.Mu == nil {
		return nil, fmt.Errorf("persist: frozen norm without statistics")
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// State

// SaveState serialises a checkpointed inference state.
func SaveState(out io.Writer, s *gnn.State) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.w.WriteString(magicState)
	w.u32(version)
	w.u32(uint32(len(s.M)))
	for _, m := range s.H {
		w.mat(m)
	}
	for l := range s.M {
		w.mat(s.M[l])
		w.mat(s.Alpha[l])
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// LoadState reads a state written by SaveState.
func LoadState(in io.Reader) (*gnn.State, error) {
	return loadStateR(&reader{r: bufio.NewReader(in)})
}

func loadStateR(r *reader) (*gnn.State, error) {
	r.magic(magicState)
	L := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if L <= 0 || L > 1024 {
		return nil, fmt.Errorf("persist: implausible layer count %d", L)
	}
	s := &gnn.State{}
	for i := 0; i <= L; i++ {
		s.H = append(s.H, r.mat())
	}
	for l := 0; l < L; l++ {
		s.M = append(s.M, r.mat())
		s.Alpha = append(s.Alpha, r.mat())
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Bundle (graph + model + state)

// SaveBundle serialises everything needed to resume an engine.
func SaveBundle(out io.Writer, g *graph.Graph, m *gnn.Model, s *gnn.State) error {
	if s.NumNodes() != g.NumNodes() {
		return fmt.Errorf("persist: state for %d nodes, graph has %d", s.NumNodes(), g.NumNodes())
	}
	w := &writer{w: bufio.NewWriter(out)}
	w.w.WriteString(magicBundle)
	w.u32(version)
	if g.Undirected {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(g.NumNodes()))
	edges := g.Edges()
	reps := make([][2]graph.NodeID, 0, len(edges))
	for _, e := range edges {
		if g.Undirected && e[0] > e[1] {
			continue
		}
		reps = append(reps, e)
	}
	w.u32(uint32(len(reps)))
	for _, e := range reps {
		w.u32(uint32(e[0]))
		w.u32(uint32(e[1]))
	}
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := SaveModel(out, m); err != nil {
		return err
	}
	return SaveState(out, s)
}

// LoadBundle reads a bundle written by SaveBundle and checks internal
// consistency. The graph is bulk-built with graph.FromPairs, in the order
// AddEdge-ing the stored edges gives, and only once the state section has
// backed the header's node count with at least one stored row value per
// node: no allocation is sized by a count before its bytes are read.
func LoadBundle(in io.Reader) (*graph.Graph, *gnn.Model, *gnn.State, error) {
	br := bufio.NewReader(in)
	r := &reader{r: br}
	r.magic(magicBundle)
	undirected := r.u8() == 1
	nodes := int(r.u32())
	nEdges := int(r.u32())
	if r.err != nil {
		return nil, nil, nil, r.err
	}
	if nodes < 0 || nodes > maxElems || nEdges < 0 || nEdges > maxElems {
		return nil, nil, nil, fmt.Errorf("persist: implausible graph header (%d nodes, %d edges)", nodes, nEdges)
	}
	pairs, err := graph.ReadPairs(br, nEdges)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: edge section: %w", err)
	}
	// The model and state sections share this reader: wrapping them in
	// fresh buffered readers would read ahead and lose section boundaries.
	m, err := loadModelR(r)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := loadStateR(r)
	if err != nil {
		return nil, nil, nil, err
	}
	if s.NumNodes() != nodes || (nodes > 0 && s.H[0].Cols == 0) {
		return nil, nil, nil, fmt.Errorf("persist: bundle state (%dx%d) does not cover the graph's %d nodes",
			s.NumNodes(), s.H[0].Cols, nodes)
	}
	g, err := graph.FromPairs(nodes, undirected, pairs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: edge section: %w", err)
	}
	return g, m, s, nil
}

// ---------------------------------------------------------------------------
// File helpers

// SaveBundleFile writes a bundle to path.
func SaveBundleFile(path string, g *graph.Graph, m *gnn.Model, s *gnn.State) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return SaveBundle(f, g, m, s)
}

// LoadBundleFile reads a bundle from path.
func LoadBundleFile(path string) (*graph.Graph, *gnn.Model, *gnn.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	return LoadBundle(f)
}
