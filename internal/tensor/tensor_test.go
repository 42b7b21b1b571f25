package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewVectorZero(t *testing.T) {
	v := NewVector(5)
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %g, want 0", i, x)
		}
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	if !v.Equal(Vector{1, 2, 3}) {
		t.Error("original mutated")
	}
}

func TestVectorEqual(t *testing.T) {
	cases := []struct {
		a, b Vector
		want bool
	}{
		{Vector{1, 2}, Vector{1, 2}, true},
		{Vector{1, 2}, Vector{1, 3}, false},
		{Vector{1, 2}, Vector{1, 2, 3}, false},
		{Vector{}, Vector{}, true},
		{nil, Vector{}, true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal = %v, want %v", i, got, c.want)
		}
	}
}

func TestVectorApproxEqual(t *testing.T) {
	a := Vector{1, 1000, -1000}
	b := Vector{1.00001, 1000.01, -1000.01}
	if !a.ApproxEqual(b, 1e-4) {
		t.Error("should be approx equal at 1e-4")
	}
	if a.ApproxEqual(b, 1e-9) {
		t.Error("should not be approx equal at 1e-9")
	}
	if a.ApproxEqual(Vector{1, 1000}, 1) {
		t.Error("dim mismatch should not be equal")
	}
}

func TestMatrixRowViews(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Error("Row must be a view, not a copy")
	}
	m.Set(2, 1, 5)
	if m.Row(2)[1] != 5 {
		t.Error("Set not visible through Row")
	}
}

func TestMatrixSetRowDimCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetRow with wrong dim must panic")
		}
	}()
	NewMatrix(2, 3).SetRow(0, Vector{1, 2})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %g", m.At(2, 1))
	}
	empty := FromRows(nil)
	if empty.Rows != 0 {
		t.Error("FromRows(nil) should be empty")
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	n := m.Clone()
	n.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
	if !m.ApproxEqual(m, 0) {
		t.Error("matrix should approx-equal itself")
	}
}

func TestMatrixZeroFill(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Fill(3)
	for _, x := range m.Data {
		if x != 3 {
			t.Fatalf("Fill failed: %g", x)
		}
	}
	m.Zero()
	for _, x := range m.Data {
		if x != 0 {
			t.Fatalf("Zero failed: %g", x)
		}
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{1.5, -2}})
	if got := a.MaxAbsDiff(b); got != 4 {
		t.Errorf("MaxAbsDiff = %g, want 4", got)
	}
}

func TestAxpy(t *testing.T) {
	dst := Vector{1, 2, 3}
	Axpy(dst, 2, Vector{1, 1, 1})
	if !dst.Equal(Vector{3, 4, 5}) {
		t.Errorf("Axpy = %v", dst)
	}
}

func TestAddSubScale(t *testing.T) {
	a, b := Vector{1, 2}, Vector{3, 5}
	dst := NewVector(2)
	Add(dst, a, b)
	if !dst.Equal(Vector{4, 7}) {
		t.Errorf("Add = %v", dst)
	}
	Sub(dst, b, a)
	if !dst.Equal(Vector{2, 3}) {
		t.Errorf("Sub = %v", dst)
	}
	Scale(dst, -1, a)
	if !dst.Equal(Vector{-1, -2}) {
		t.Errorf("Scale = %v", dst)
	}
	// Scale may alias.
	Scale(a, 2, a)
	if !a.Equal(Vector{2, 4}) {
		t.Errorf("aliased Scale = %v", a)
	}
}

func TestEltMaxMin(t *testing.T) {
	a, b := Vector{1, 5, -2}, Vector{3, 4, -2}
	dst := NewVector(3)
	EltMax(dst, a, b)
	if !dst.Equal(Vector{3, 5, -2}) {
		t.Errorf("EltMax = %v", dst)
	}
	EltMin(dst, a, b)
	if !dst.Equal(Vector{1, 4, -2}) {
		t.Errorf("EltMin = %v", dst)
	}
}

func TestDotSum(t *testing.T) {
	if got := Dot(Vector{1, 2, 3}, Vector{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g", got)
	}
	if got := Sum(Vector{1, 2, 3}); got != 6 {
		t.Errorf("Sum = %g", got)
	}
}

func TestReLU(t *testing.T) {
	x := Vector{-1, 0, 2}
	dst := NewVector(3)
	ReLU(dst, x)
	if !dst.Equal(Vector{0, 0, 2}) {
		t.Errorf("ReLU = %v", dst)
	}
	// In-place form.
	ReLU(x, x)
	if !x.Equal(Vector{0, 0, 2}) {
		t.Errorf("in-place ReLU = %v", x)
	}
}

func TestIdentityActivation(t *testing.T) {
	x := Vector{-1, 3}
	dst := NewVector(2)
	Identity(dst, x)
	if !dst.Equal(x) {
		t.Errorf("Identity = %v", dst)
	}
}

func TestVecMat(t *testing.T) {
	// x (1x2) * m (2x3)
	m := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	x := Vector{2, 1}
	dst := NewVector(3)
	VecMat(dst, x, m)
	if !dst.Equal(Vector{6, 9, 12}) {
		t.Errorf("VecMat = %v", dst)
	}
}

func TestMatVec(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	dst := NewVector(2)
	MatVec(dst, m, Vector{1, 1})
	if !dst.Equal(Vector{3, 7}) {
		t.Errorf("MatVec = %v", dst)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	MatMul(c, a, b)
	want := FromRows([][]float32{{19, 22}, {43, 50}})
	if !c.Equal(want) {
		t.Errorf("MatMul = %v, want %v", c, want)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch must panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

// TestParallelMatMulMatchesSequential and TestParallelForCoversRange moved
// to parallel_test.go / gemm_test.go as strict bit-exactness variants.

func TestGlorotMatrixDeterministic(t *testing.T) {
	a := GlorotMatrix(rand.New(rand.NewSource(42)), 8, 8)
	b := GlorotMatrix(rand.New(rand.NewSource(42)), 8, 8)
	if !a.Equal(b) {
		t.Error("same seed must give identical weights")
	}
	c := GlorotMatrix(rand.New(rand.NewSource(43)), 8, 8)
	if a.Equal(c) {
		t.Error("different seed should give different weights")
	}
}

func TestGlorotMatrixScale(t *testing.T) {
	m := GlorotMatrix(rand.New(rand.NewSource(1)), 16, 16)
	bound := float32(math.Sqrt(6.0 / 32.0))
	for _, x := range m.Data {
		if x < -bound || x > bound {
			t.Fatalf("element %g outside Glorot bound %g", x, bound)
		}
	}
}

func TestRandVectorInRange(t *testing.T) {
	v := RandVector(rand.New(rand.NewSource(1)), 100, 2)
	for _, x := range v {
		if x < -2 || x > 2 {
			t.Fatalf("element %g outside [-2,2]", x)
		}
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Error("finite vector misreported")
	}
	if (Vector{1, Inf32}).IsFinite() {
		t.Error("Inf not detected")
	}
	if (Vector{float32(math.NaN())}).IsFinite() {
		t.Error("NaN not detected")
	}
}

// Property: EltMax is commutative, associative and idempotent.
func TestQuickEltMaxLaws(t *testing.T) {
	f := func(a, b, c []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
		a, b, c = a[:n], b[:n], c[:n]
		ab, ba := NewVector(n), NewVector(n)
		EltMax(ab, Vector(a), Vector(b))
		EltMax(ba, Vector(b), Vector(a))
		if !ab.Equal(ba) {
			return false
		}
		// (a max b) max c == a max (b max c)
		l, r, bc := NewVector(n), NewVector(n), NewVector(n)
		EltMax(l, ab, Vector(c))
		EltMax(bc, Vector(b), Vector(c))
		EltMax(r, Vector(a), bc)
		if !l.Equal(r) {
			return false
		}
		// idempotent
		aa := NewVector(n)
		EltMax(aa, Vector(a), Vector(a))
		return aa.Equal(Vector(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: VecMat distributes over vector addition.
func TestQuickVecMatLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		in := 1 + rng.Intn(8)
		out := 1 + rng.Intn(8)
		m := RandMatrix(rng, in, out, 1)
		x := RandVector(rng, in, 1)
		y := RandVector(rng, in, 1)
		xy := NewVector(in)
		Add(xy, x, y)
		lhs := NewVector(out)
		VecMat(lhs, xy, m)
		rx, ry := NewVector(out), NewVector(out)
		VecMat(rx, x, m)
		VecMat(ry, y, m)
		rhs := NewVector(out)
		Add(rhs, rx, ry)
		if !lhs.ApproxEqual(rhs, 1e-4) {
			t.Fatalf("trial %d: VecMat not linear", trial)
		}
	}
}
