//go:build !amd64

package tensor

// addKernel, addRowsKernel, eltMaxKernel and eltMinKernel are the bodies of
// Add, AddRows, EltMax and EltMin on every GOARCH without assembly ones.
func addKernel(dst, a, b []float32) {
	checkTriple("Add", dst, a, b)
	addGeneric(dst, a, b)
}

func addRowsKernel(dst []float32, rows []int32, x []float32) {
	addRowsGeneric(dst, rows, x)
}

func eltMaxKernel(dst, a, b []float32) {
	checkTriple("EltMax", dst, a, b)
	eltMaxGeneric(dst, a, b)
}

func eltMinKernel(dst, a, b []float32) {
	checkTriple("EltMin", dst, a, b)
	eltMinGeneric(dst, a, b)
}
