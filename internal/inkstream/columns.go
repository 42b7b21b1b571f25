package inkstream

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// denseInDegree is the mean in-degree (arcs ÷ nodes) from which an engine
// keeps column-major copies of its monotonic message matrices. It sits
// between BenchmarkRebuildChannels' crossovers for one exposed channel
// (in-degree 128) and for four (16 to 32; EXPERIMENTS.md): below it a
// rebuild scans few rows, which the row layout serves from a line or two
// each, and the copy's memory and per-write stores cost more than they save.
const denseInDegree = 64

// msgLayout overrides the density rule for the engines built after it is
// set. Only tests set it, to hold both layouts to the same definitions.
var msgLayout = layoutByDensity

const (
	layoutByDensity = iota
	layoutRows
	layoutColumns
)

// msgCols is the column-major copy of the message matrix M[l] of every
// monotonic layer, kept on a dense graph (DESIGN.md §6.4): channel i of node
// v sits at data[l][i·stride+v], so an exposed-reset rebuild reads one
// contiguous column per exposed channel instead of one row per neighbour.
// data is nil on a sparse graph, and data[l] nil for an accumulative layer.
// Every write of an M row writes the row's column entries too (set).
type msgCols struct {
	data   [][]float32
	stride int
}

// initColumns chooses the layout from the engine's own graph and, for the
// column layout, transposes the monotonic message matrices into the copy.
func (e *Engine) initColumns() {
	n := e.g.NumNodes()
	switch msgLayout {
	case layoutRows:
		return
	case layoutByDensity:
		if n == 0 || e.g.NumArcs() < denseInDegree*n {
			return
		}
	}
	c := msgCols{data: make([][]float32, e.model.NumLayers()), stride: colStride(n)}
	kept := false
	for l, layer := range e.model.Layers {
		if !layer.Agg().Monotonic() {
			continue
		}
		c.data[l] = make([]float32, layer.MsgDim()*c.stride)
		for v := 0; v < n; v++ {
			c.set(l, graph.NodeID(v), e.state.M[l].Row(v))
		}
		kept = true
	}
	if kept {
		e.cols = c
	}
}

// set writes row, node v's new layer-l message, into the copy.
func (c *msgCols) set(l int, v graph.NodeID, row tensor.Vector) {
	if c.data == nil || c.data[l] == nil {
		return
	}
	col, s := c.data[l], c.stride
	for i, x := range row {
		col[i*s+int(v)] = x
	}
}

// grow makes room for n nodes, doubling the stride when n outgrows it.
func (c *msgCols) grow(n int) {
	if c.data == nil || n <= c.stride {
		return
	}
	s := colStride(max(2*c.stride, n))
	for l, old := range c.data {
		if old == nil {
			continue
		}
		grown := make([]float32, len(old)/c.stride*s)
		for i := 0; i < len(old)/c.stride; i++ {
			copy(grown[i*s:], old[i*c.stride:(i+1)*c.stride])
		}
		c.data[l] = grown
	}
	c.stride = s
}

// colStride is the stride for n nodes: n rounded up to an odd number of
// 64-byte lines. A row's column entries are then one stride apart, and a
// stride of an even number of lines — 4 KiB for 1 024 nodes — would map them
// into fewer cache sets, so a row write would evict its own stores.
func colStride(n int) int {
	lines := (n + 15) / 16
	if lines%2 == 0 {
		lines++
	}
	return 16 * lines
}

// column returns channel i of the layer-l copy, one float per node slot.
func (c *msgCols) column(l int, i int32) []float32 {
	s := c.stride
	return c.data[l][int(i)*s : (int(i)+1)*s]
}
