//go:build !amd64

package tensor

// addKernel is Add's body on every GOARCH without an assembly one.
func addKernel(dst, a, b []float32) {
	checkTriple("Add", dst, a, b)
	addGeneric(dst, a, b)
}
