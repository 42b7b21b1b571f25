package tensor

// addKernel is Add's SSE2 body (add_amd64.s), addRowsKernel AddRows'
// (addrows_amd64.s); eltMaxKernel and eltMinKernel are EltMax's and EltMin's
// (eltmax_amd64.s). SSE2 is part of the amd64 baseline, so they need no
// CPU-feature check. On unequal lengths each of the first three jumps to its
// mismatch function, which panics, before touching memory; addRowsKernel
// checks each row index before touching its row or its mark and jumps to
// addRowsOutOfRange.
//
//go:noescape
func addKernel(dst, a, b []float32)

//go:noescape
func addRowsKernel(dst []float32, rows []int32, x []float32, marks []uint64)

//go:noescape
func eltMaxKernel(dst, a, b []float32)

//go:noescape
func eltMinKernel(dst, a, b []float32)

// addMismatch, eltMaxMismatch and eltMinMismatch panic for the kernels.
func addMismatch(dst, a, b []float32)    { checkTriple("Add", dst, a, b) }
func eltMaxMismatch(dst, a, b []float32) { checkTriple("EltMax", dst, a, b) }
func eltMinMismatch(dst, a, b []float32) { checkTriple("EltMin", dst, a, b) }
