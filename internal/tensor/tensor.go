// Package tensor provides the dense linear-algebra substrate used by the
// GNN inference engine: row-major float32 matrices and vectors, parallel
// blocked matrix multiplication, fused element-wise kernels, and the
// activation functions required by the supported models.
//
// The package is deliberately small and allocation-conscious: inference on
// large graphs is dominated by per-row operations (one row per graph node),
// so every hot kernel has an in-place destination form and the matrix type
// exposes zero-copy row views.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float32 vector. It is a plain slice so callers can use
// standard slice operations; the functions in this package treat length as
// the dimension.
type Vector []float32

// NewVector returns a zero vector with dimension n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether v and w have the same dimension and are
// bit-identical in every channel.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether v and w have the same dimension and every
// channel agrees within tol, using a mixed absolute/relative criterion:
// |a-b| <= tol * max(1, |a|, |b|). Equal channels agree, NaN on both sides
// included; a channel where one side is NaN or infinite and the other is not
// the same never does.
func (v Vector) ApproxEqual(w Vector, tol float32) bool {
	if len(v) != len(w) {
		return false
	}
	for i, a := range v {
		b := w[i]
		switch {
		case a == b || a != a && b != b:
		case a != a || b != b || abs32(a) > math.MaxFloat32 || abs32(b) > math.MaxFloat32:
			return false
		case abs32(a-b) > tol*max(1, abs32(a), abs32(b)):
			return false
		}
	}
	return true
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// Matrix is a dense row-major float32 matrix. Rows typically index graph
// nodes and columns index embedding channels.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: got %d want %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a zero-copy view of row i.
func (m *Matrix) Row(i int) Vector {
	return Vector(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// SetRow copies v into row i. v must have dimension Cols.
func (m *Matrix) SetRow(i int, v Vector) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: SetRow dim %d into %d-col matrix", len(v), m.Cols))
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float32, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0 without reallocating.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and n have the same shape and bit-identical data.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if m.Data[i] != n.Data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether m and n have the same shape and agree within
// tol per element (see Vector.ApproxEqual).
func (m *Matrix) ApproxEqual(n *Matrix, tol float32) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	return Vector(m.Data).ApproxEqual(Vector(n.Data), tol)
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and n, for diagnostics. Equal entries, NaN on both sides included, differ
// by 0; an entry where exactly one side is NaN differs by +Inf, so a
// divergence to NaN never reads as agreement. Panics if shapes differ.
func (m *Matrix) MaxAbsDiff(n *Matrix) float32 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var worst float32
	for i, a := range m.Data {
		b := n.Data[i]
		switch {
		case a == b || a != a && b != b:
		case a != a || b != b:
			return float32(math.Inf(1))
		default:
			worst = max(worst, abs32(a-b))
		}
	}
	return worst
}

// String renders a small matrix for debugging; large matrices are
// summarised by shape.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%g", m.At(i, j))
		}
	}
	return s + "]"
}

// AppendRow grows the matrix by one row holding a copy of v. Existing row
// views remain valid over the old backing array but may become stale if
// append reallocates; callers must not hold row views across AppendRow.
func (m *Matrix) AppendRow(v Vector) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AppendRow dim %d into %d-col matrix", len(v), m.Cols))
	}
	m.Data = append(m.Data, v...)
	m.Rows++
}

// Inf32 is the positive infinity used as the reset sentinel for min
// aggregation; its negation is the sentinel for max aggregation.
var Inf32 = float32(math.Inf(1))

// IsFinite reports whether every element of v is finite (no reset sentinel
// leaked into a result).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
			return false
		}
	}
	return true
}
