package tensor

import "fmt"

// This file holds the blocked GEMM core shared by MatMul, the fused
// bias/activation variants and their parallel wrappers.
//
// The kernel is register-tiled over rows and cache-blocked over columns
// only: every output element c[i][j] is accumulated as the ordered sum over
// k (ascending) of a[i][k]*b[k][j], exactly like the per-row VecMat kernel.
// Keeping the k dimension in arrival order is a hard invariant — the
// incremental engine verifies its maintained state bit-for-bit against a
// fresh batched inference (Engine.Verify(0)), which only works because the
// batched and per-row combination paths produce identical bits. Tiling may
// therefore reorder which outputs are computed together (rows, column
// blocks) but never the reduction order within one output element.
//
// Inputs are assumed finite (no Inf/NaN); under that assumption skipping
// zero multiplicands, as VecMat does, cannot change any accumulated bit.

const (
	// gemmMR is the register tile height: rows of c accumulated together so
	// each streamed row of b is reused gemmMR times from registers/L1. Two
	// rows measured fastest under gc's scalar codegen (wider tiles spill and
	// re-check bounds); see BenchmarkGEMMKernel.
	gemmMR = 2
	// gemmNC is the column block width (in float32 elements): the c tile
	// (gemmMR rows) and the active b row segment stay cache-resident while
	// the k loop streams.
	gemmNC = 1024
)

// gemmRows computes rows [lo, hi) of c = a*b with the tiled kernel.
// It fully overwrites those rows.
func gemmRows(c, a, b *Matrix, lo, hi int) {
	if c.Cols == 0 {
		return
	}
	k := a.Cols
	for jc := 0; jc < c.Cols; jc += gemmNC {
		jHi := jc + gemmNC
		if jHi > c.Cols {
			jHi = c.Cols
		}
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			gemm2(c, a, b, i, jc, jHi, k)
		}
		for ; i < hi; i++ {
			gemm1(c, a, b, i, jc, jHi, k)
		}
	}
}

// gemm2 accumulates the gemmMR=2 row tile c[i..i+1][jLo:jHi]. The slice
// re-derivations before the inner loop let the compiler prove every index
// in bounds (verified with -d=ssa/check_bce).
func gemm2(c, a, b *Matrix, i, jLo, jHi, k int) {
	c0 := c.Row(i)[jLo:jHi:jHi]
	c1 := c.Row(i + 1)[jLo:jHi:jHi]
	for j := range c0 {
		c0[j], c1[j] = 0, 0
	}
	a0 := a.Row(i)
	a1 := a.Row(i + 1)
	for p := 0; p < k; p++ {
		v0, v1 := a0[p], a1[p]
		if v0 == 0 && v1 == 0 {
			continue
		}
		bp := b.Row(p)[jLo:jHi:jHi]
		bp = bp[:len(c0)]
		c1 := c1[:len(bp)]
		// The j loop is unrolled 4-wide: output elements are independent,
		// so unrolling across j never touches the per-element k order.
		j := 0
		for ; j+4 <= len(bp); j += 4 {
			x0, x1, x2, x3 := bp[j], bp[j+1], bp[j+2], bp[j+3]
			c0[j] += v0 * x0
			c0[j+1] += v0 * x1
			c0[j+2] += v0 * x2
			c0[j+3] += v0 * x3
			c1[j] += v1 * x0
			c1[j+1] += v1 * x1
			c1[j+2] += v1 * x2
			c1[j+3] += v1 * x3
		}
		for ; j < len(bp); j++ {
			x := bp[j]
			c0[j] += v0 * x
			c1[j] += v1 * x
		}
	}
}

// gemm1 accumulates a single remainder row c[i][jLo:jHi].
func gemm1(c, a, b *Matrix, i, jLo, jHi, k int) {
	ci := c.Row(i)[jLo:jHi:jHi]
	for j := range ci {
		ci[j] = 0
	}
	ai := a.Row(i)
	for p := 0; p < k; p++ {
		v := ai[p]
		if v == 0 {
			continue
		}
		bp := b.Row(p)[jLo:jHi:jHi]
		bp = bp[:len(ci)]
		for j, x := range bp {
			ci[j] += v * x
		}
	}
}

// epilogueRows applies the fused bias/activation tail to rows [lo, hi) of
// c, in the same order as the per-row path: accumulate, then add bias, then
// activate. Either may be nil.
func epilogueRows(c *Matrix, bias Vector, act Activation, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := c.Row(i)
		if bias != nil {
			Add(row, row, bias)
		}
		if act != nil {
			act(row, row)
		}
	}
}

func checkMatMulShapes(op string, c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shapes %dx%d * %dx%d -> %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}

// MatMulBiasAct computes c = act(a*b + bias) sequentially with the fused
// epilogue. bias (length c.Cols) and act may each be nil; the result is
// bit-identical to running VecMat, Add and the activation row by row.
func MatMulBiasAct(c, a, b *Matrix, bias Vector, act Activation) {
	checkMatMulShapes("MatMulBiasAct", c, a, b)
	if bias != nil && len(bias) != c.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasAct bias dim %d for %d cols", len(bias), c.Cols))
	}
	gemmRows(c, a, b, 0, c.Rows)
	epilogueRows(c, bias, act, 0, c.Rows)
}

// ParallelMatMulBiasAct is MatMulBiasAct with rows sharded over the worker
// pool. The row partition does not affect bits: each output row is computed
// entirely by one worker in the canonical order.
func ParallelMatMulBiasAct(c, a, b *Matrix, bias Vector, act Activation) {
	checkMatMulShapes("ParallelMatMulBiasAct", c, a, b)
	if bias != nil && len(bias) != c.Cols {
		panic(fmt.Sprintf("tensor: ParallelMatMulBiasAct bias dim %d for %d cols", len(bias), c.Cols))
	}
	if a.Rows*a.Cols*b.Cols < parallelMatMulCutoff {
		gemmRows(c, a, b, 0, c.Rows)
		epilogueRows(c, bias, act, 0, c.Rows)
		return
	}
	ParallelForGrain(a.Rows, a.Cols*b.Cols+b.Cols, func(lo, hi int) {
		gemmRows(c, a, b, lo, hi)
		epilogueRows(c, bias, act, lo, hi)
	})
}
