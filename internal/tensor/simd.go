package tensor

// useAVX2 selects the AVX2 micro-kernels (gemm_amd64.s) over the portable
// Go kernels for the 8-aligned column blocks of every micro-kernel and strip
// sweep. It is set once at init from CPUID and is false on other GOARCHes
// and on CPUs without AVX2. The assembly repeats the portable kernels'
// per-element float32 operations exactly (separate multiply and add, no
// FMA, same k order), so the choice never changes a result; the tests
// clear it to run the portable kernels as their bitwise reference.
var useAVX2 = cpuHasAVX2()

// KernelSet names the dense kernel set this process runs: "avx2" or
// "generic". Results are identical under either; timings are not.
func KernelSet() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// gemm4AVX2 runs gemmKernel4AVX2 on C rows starting at c[co] (stride ldc),
// A rows at a[ao] (stride lda) and nblk 8-wide B blocks at b[bo] (row
// stride ldb, block stride bjs), after bounds-checking the last element of
// each operand it touches, so the assembly never reads or writes outside
// the slices.
func gemm4AVX2(c []float32, co, ldc int, a []float32, ao, lda int, b []float32, bo, ldb, bjs, kcur, nblk int) {
	_ = c[co+3*ldc+8*nblk-1]
	_ = a[ao+3*lda+kcur-1]
	_ = b[bo+(nblk-1)*bjs+(kcur-1)*ldb+7]
	gemmKernel4AVX2(&c[co], ldc, &a[ao], lda, &b[bo], ldb, bjs, kcur, nblk)
}

// gemm1AVX2 is gemm4AVX2 for a single C row.
func gemm1AVX2(c []float32, co int, a []float32, ao int, b []float32, bo, ldb, bjs, kcur, nblk int) {
	_ = c[co+8*nblk-1]
	_ = a[ao+kcur-1]
	_ = b[bo+(nblk-1)*bjs+(kcur-1)*ldb+7]
	gemmKernel1AVX2(&c[co], &a[ao], &b[bo], ldb, bjs, kcur, nblk)
}

// gemmMicro4AVX2 is gemmMicro4 with its 8-aligned column prefix in AVX2 and
// the ragged tail (ncur mod 8 columns) in the portable kernel.
func gemmMicro4AVX2(c, a, bp []float32, aOff, aStride, bOff, bStride, i, n, kcur, j0, ncur int) {
	w := ncur &^ 7
	if w > 0 {
		gemm4AVX2(c, i*n+j0, n, a, aOff, aStride, bp, bOff, bStride, 8, kcur, w/8)
	}
	if w < ncur {
		gemmMicro4(c, a, bp, aOff, aStride, bOff+w, bStride, i, n, kcur, j0+w, ncur-w)
	}
}

// gemmMicro1AVX2 is the single-row remainder of gemmMicro4AVX2.
func gemmMicro1AVX2(c, a, bp []float32, aOff, aStride, bOff, bStride, i, n, kcur, j0, ncur int) {
	w := ncur &^ 7
	if w > 0 {
		gemm1AVX2(c, i*n+j0, a, aOff, bp, bOff, bStride, 8, kcur, w/8)
	}
	if w < ncur {
		gemmMicro1(c, a, bp, aOff, aStride, bOff+w, bStride, i, n, kcur, j0+w, ncur-w)
	}
}

// gemmStripSweepAVX2 is gemmStripSweepChunk in AVX2: C rows go four at a
// time, and each full 8-wide strip of the panel is one column block of the
// micro-kernel (B row stride 8, block stride 8·kcur), so one strip's B
// loads serve four rows. A non-seeded band is zeroed first — 0 + x is
// exactly what a zero-initialized accumulator computes — and the ragged
// final strip runs gemmStripTail per row.
func gemmStripSweepAVX2(g *panelJob, lo, hi int) {
	c, a, pb := g.c, g.a, g.pb
	k, n := g.k, g.n
	k0, kcur, j0, ncur := g.k0, g.kcur, g.j0, g.ncur
	if !g.accumulate && k0 == 0 {
		for i := lo; i < hi; i++ {
			zeroSlice(c[i*n+j0 : i*n+j0+ncur])
		}
	}
	w := ncur &^ 7
	if w > 0 {
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			gemm4AVX2(c, i*n+j0, n, a, i*k+k0, k, pb, 0, 8, 8*kcur, kcur, w/8)
		}
		for ; i < hi; i++ {
			gemm1AVX2(c, i*n+j0, a, i*k+k0, pb, 0, 8, 8*kcur, kcur, w/8)
		}
	}
	if w < ncur {
		for i := lo; i < hi; i++ {
			gemmStripTail(c[i*n+j0+w:i*n+j0+ncur], a[i*k+k0:i*k+k0+kcur], pb[w*kcur:], kcur, true)
		}
	}
}
