package tensor

import "fmt"

// Axpy computes dst[i] += a*x[i]. dst and x must have equal dimension.
func Axpy(dst Vector, a float32, x Vector) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: Axpy dim mismatch %d vs %d", len(dst), len(x)))
	}
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// Add computes dst[i] = a[i] + b[i]. dst may alias a or b (the same slice,
// not an offset view). It is the fold kernel of the accumulative path and of
// sum/mean Merge: on amd64 it runs an SSE2 body (add_amd64.s), elsewhere
// addGeneric; both perform, per lane, the one IEEE binary32 add a[i] + b[i],
// so the result is bit-identical on every GOARCH. Both bodies check the
// lengths themselves, so Add is one call and inlines into its caller.
func Add(dst, a, b Vector) { addKernel(dst, a, b) }

// addGeneric is Add's portable body and the reference its SSE2 body is
// tested against.
func addGeneric(dst, a, b Vector) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// AddRows adds x to rows of a row-major slab: for each index r of rows, in
// order, the len(x) floats of dst starting at r·len(x) become Add(row, row,
// x) — one call where the accumulative path would make one Add per target
// row. A repeated index folds twice, the second time onto the first result.
// An index that is negative or names a row past the end of dst panics before
// that row is touched; the rows before it have been folded. On amd64 it runs
// an SSE2 body (addrows_amd64.s), elsewhere addRowsGeneric; per lane both
// perform Add's one IEEE binary32 add, so every row is bit-identical to the
// Add it replaces on every GOARCH.
func AddRows(dst Vector, rows []int32, x Vector) { addRowsKernel(dst, rows, x) }

// addRowsGeneric is AddRows' portable body and the reference its SSE2 body
// is tested against.
func addRowsGeneric(dst Vector, rows []int32, x Vector) {
	n := len(x)
	for _, r := range rows {
		if r < 0 || (int(r)+1)*n > len(dst) {
			addRowsOutOfRange(dst, rows, x)
		}
		row := dst[int(r)*n : int(r)*n+n]
		addGeneric(row, row, x)
	}
}

// addRowsOutOfRange panics with the first index of rows AddRows cannot fold.
func addRowsOutOfRange(dst Vector, rows []int32, x Vector) {
	for k, r := range rows {
		if r < 0 || (int(r)+1)*len(x) > len(dst) {
			panic(fmt.Sprintf("tensor: AddRows rows[%d] = %d out of range for a %d-float slab of %d-float rows", k, r, len(dst), len(x)))
		}
	}
}

// Sub computes dst[i] = a[i] - b[i].
func Sub(dst, a, b Vector) {
	checkTriple("Sub", dst, a, b)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Scale computes dst[i] = a * x[i]. dst may alias x.
func Scale(dst Vector, a float32, x Vector) {
	if len(dst) != len(x) {
		panic("tensor: Scale dim mismatch")
	}
	for i := range dst {
		dst[i] = a * x[i]
	}
}

// EltMax computes dst[i] = max(a[i], b[i]) as a selection: a[i] when
// a[i] >= b[i], else b[i], so a tie keeps a and a NaN on either side yields
// b. dst may alias a or b (the same slice, not an offset view). It is the
// merge of max aggregation and of the monotonic path: on amd64 it runs an
// SSE2 compare-and-blend body (eltmax_amd64.s), elsewhere eltMaxGeneric;
// both copy the same operand's bits on every lane, so the result is
// bit-identical on every GOARCH. Like Add, it is one call.
func EltMax(dst, a, b Vector) { eltMaxKernel(dst, a, b) }

// EltMin computes dst[i] = min(a[i], b[i]) by the mirrored rule: a[i] when
// a[i] <= b[i], else b[i]. See EltMax.
func EltMin(dst, a, b Vector) { eltMinKernel(dst, a, b) }

// eltMaxGeneric is EltMax's portable body and the reference its SSE2 body
// is tested against.
func eltMaxGeneric(dst, a, b Vector) {
	for i := range dst {
		if a[i] >= b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// eltMinGeneric is EltMin's portable body and test reference.
func eltMinGeneric(dst, a, b Vector) {
	for i := range dst {
		if a[i] <= b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot dim mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Sum returns the sum of the elements of v.
func Sum(v Vector) float32 {
	var s float32
	for _, x := range v {
		s += x
	}
	return s
}

func checkTriple(op string, dst, a, b Vector) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("tensor: %s dim mismatch %d/%d/%d", op, len(dst), len(a), len(b)))
	}
}

// ReLU computes dst[i] = max(0, x[i]). dst may alias x.
func ReLU(dst, x Vector) {
	if len(dst) != len(x) {
		panic("tensor: ReLU dim mismatch")
	}
	for i := range x {
		if x[i] > 0 {
			dst[i] = x[i]
		} else {
			dst[i] = 0
		}
	}
}

// Identity copies x into dst (the "no activation" function).
func Identity(dst, x Vector) {
	if len(dst) != len(x) {
		panic("tensor: Identity dim mismatch")
	}
	copy(dst, x)
}

// Activation is an element-wise function applied at the end of a GNN
// layer; dst and x always have the same dimension and may alias.
type Activation func(dst, x Vector)

// MatVec computes dst = m * x where x has dimension m.Cols and dst has
// dimension m.Rows.
func MatVec(dst Vector, m *Matrix, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shapes %dx%d * %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// VecMat computes dst = x * m (row vector times matrix) where x has
// dimension m.Rows and dst has dimension m.Cols. This is the per-node
// combination kernel: node embedding (1 x in) times weight (in x out).
func VecMat(dst Vector, x Vector, m *Matrix) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: VecMat shapes %d * %dx%d -> %d", len(x), m.Rows, m.Cols, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		Axpy(dst, xi, row)
	}
}

// MatMul computes c = a * b sequentially with the register-tiled kernel
// (see gemm.go). Shapes: a is (n x k), b is (k x m), c is (n x m). For
// large n prefer ParallelMatMul. Each output row is bit-identical to
// VecMat(c.Row(i), a.Row(i), b).
func MatMul(c, a, b *Matrix) {
	checkMatMulShapes("MatMul", c, a, b)
	gemmRows(c, a, b, 0, a.Rows)
}
