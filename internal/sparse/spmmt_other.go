//go:build !amd64

package sparse

// Other GOARCHes have no assembly kernels: useAVX2 stays false, so this
// stub is never called.
func spmmtPanelAVX2(out, panel []float32, rowPtr, colIdx []int32, val []float32) {
	panic("sparse: AVX2 kernel called on a non-amd64 build")
}

func transposeAVX2(dst []float32, ldd int, src []float32, lds, nr, nc int) {
	panic("sparse: AVX2 kernel called on a non-amd64 build")
}
