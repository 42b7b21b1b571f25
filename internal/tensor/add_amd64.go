package tensor

// addKernel is Add's SSE2 body (add_amd64.s). SSE2 is part of the amd64
// baseline, so it needs no CPU-feature check. On unequal lengths it jumps
// to addMismatch before touching memory.
//
//go:noescape
func addKernel(dst, a, b []float32)

// addMismatch panics for addKernel.
func addMismatch(dst, a, b []float32) { checkTriple("Add", dst, a, b) }
