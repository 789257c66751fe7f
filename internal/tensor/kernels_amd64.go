package tensor

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves YMM
// state across context switches (CPUID OSXSAVE/AVX/AVX2 plus XGETBV).
func cpuHasAVX2() bool

//go:noescape
func gemmKernel4AVX2(c *float32, ldc int, a *float32, lda int, b *float32, ldb, bjs, kcur, nblk int)

//go:noescape
func gemmKernel1AVX2(c *float32, a *float32, b *float32, ldb, bjs, kcur, nblk int)
