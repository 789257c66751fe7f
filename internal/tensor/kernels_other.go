//go:build !amd64

package tensor

// Other GOARCHes have no assembly kernels: useAVX2 stays false, so these
// stubs are never called.

func cpuHasAVX2() bool { return false }

func gemmKernel4AVX2(c *float32, ldc int, a *float32, lda int, b *float32, ldb, bjs, kcur, nblk int) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}

func gemmKernel1AVX2(c *float32, a *float32, b *float32, ldb, bjs, kcur, nblk int) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}
