package tensor

import (
	"fmt"
	"sync"

	"github.com/sparse-dl/samo/internal/parallel"
)

// GEMM blocking parameters. Each product runs one fixed blocking, chosen by
// an interleaved timing sweep of candidate blockings over the shapes the
// training and serving workloads issue, the Figure-1 FC shapes and
// conv-like shapes: each is fastest or within timing noise nearly
// everywhere (the MatMulT strip layout gives up to ~12% at tall m for its
// 1.2-1.7x lead at small m). Every blocking accumulates each C element in
// the same pairwise k order (every kc is even), so none changes a result.
const (
	gemmMR = 4 // micro-kernel rows (A rows per strip)
	// gemmGrain is the minimum C rows per parallel chunk for the saxpy and
	// tiled small-shape kernels.
	gemmGrain = 8
	// gemmPackGrain is the minimum panel rows per worker in the cooperative
	// pack: a row copy is ~nc·4 bytes of pure memcpy, so fine-grained
	// fan-out is all dispatch overhead.
	gemmPackGrain = 32
	// tiledKC blocks the k dimension of the transposed products so a 4-row
	// A strip and 4-row B strip stay L1-resident.
	tiledKC = 512
	// MatMul reads B in place (no packing) in directKC×directNC blocks.
	directKC = 256
	directNC = 512
	// MatMulT and TMatMul pack panelKC×panelNC panels of their effective B.
	panelKC = 512
	panelNC = 256
	// packBufCap sizes pooled panel buffers to one packed panel.
	packBufCap = panelKC * panelNC
)

// ResetTuneTable does nothing: GEMM blocking is fixed per product, so there
// is no tuning state to clear. Only the frozen benchmark still calls it.
func ResetTuneTable() {}

// MatMul computes C = A·B for A of shape (m,k) and B of shape (k,n),
// returning a new (m,n) tensor. This is the dense kernel standing in for
// cuBLAS: SAMO's whole design rests on the observation that a tuned dense
// GEMM is far faster than sparse kernels at DL sparsities, so θ16 stays
// dense. On amd64 with AVX2 its register-blocked micro-kernel runs as
// assembly (see the package doc), and so does the transposed SpMM in
// package sparse, so the sparse/dense crossover rule was measured with
// vector kernels on both sides.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := gemmDims(a, b)
	c := New(m, n)
	gemm(c.data, a.data, b.data, m, k, n, false)
	return c
}

// MatMulInto computes C = A·B into an existing (m,n) tensor, avoiding the
// allocation. If accumulate is true it computes C += A·B. The call is
// allocation-free: kernel dispatch, panel packing and parallel fan-out all
// run on pooled state.
func MatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := gemmDims(a, b)
	if c.Len() != m*n {
		panic(fmt.Sprintf("tensor: MatMulInto output has %d elements, want %d", c.Len(), m*n))
	}
	gemm(c.data, a.data, b.data, m, k, n, accumulate)
}

func gemmDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions %d and %d differ", k, b.shape[0]))
	}
	n = b.shape[1]
	return m, k, n
}

// gemmJob carries one matrix product's arguments to the pool workers. Jobs
// and packing buffers are recycled through parallel.Pool free lists so
// kernel dispatch never allocates.
type gemmJob struct {
	c, a, b    []float32
	m, k, n    int
	accumulate bool
}

var gemmJobFree parallel.Pool[gemmJob]

func getGemmJob() *gemmJob { return gemmJobFree.Get() }

func putGemmJob(j *gemmJob) {
	j.c, j.a, j.b = nil, nil, nil
	gemmJobFree.Put(j)
}

var packFree struct {
	mu   sync.Mutex
	list [][]float32
}

func getPackBuf() []float32 {
	packFree.mu.Lock()
	l := len(packFree.list)
	if l == 0 {
		packFree.mu.Unlock()
		return make([]float32, packBufCap)
	}
	b := packFree.list[l-1]
	packFree.list = packFree.list[:l-1]
	packFree.mu.Unlock()
	return b
}

func putPackBuf(b []float32) {
	packFree.mu.Lock()
	packFree.list = append(packFree.list, b)
	packFree.mu.Unlock()
}

// gemm dispatches C (+)= A·B over the worker pool. Large shapes run the
// direct-B micro-kernel; small or skinny shapes fall back to the row-saxpy
// kernel, whose per-row cost model fits them better.
func gemm(c, a, b []float32, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			zeroSlice(c[:m*n])
		}
		return
	}
	j := getGemmJob()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	if m >= gemmMR && n >= 16 && k >= 16 {
		parallel.Run(m, gemmMR, j, gemmDirectChunk)
	} else {
		parallel.Run(m, gemmGrain, j, gemmSaxpyChunk)
	}
	putGemmJob(j)
}

// panelJob carries the shared-pack pipeline's per-panel state to the pool
// workers. One job serves a whole product: the caller mutates the panel
// fields between parallel.Run barriers (Run returns only after every chunk
// finished, so workers never observe a mutation mid-panel).
type panelJob struct {
	c, a, b    []float32
	m, k, n    int
	accumulate bool
	pb         []float32 // the one shared packed B panel
	pa         []float32 // packed Aᵀ block (TMatMul only; nil otherwise)
	k0, kcur   int       // current panel's k range
	j0, ncur   int       // current panel's n range
	i0, mcur   int       // current Aᵀ block's row range (TMatMul only)
}

var panelJobFree parallel.Pool[panelJob]

func getPanelJob(c, a, b []float32, m, k, n int, accumulate bool) *panelJob {
	j := panelJobFree.Get()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	j.pb = getPackBuf()
	return j
}

func putPanelJob(j *panelJob) {
	putPackBuf(j.pb)
	if j.pa != nil {
		putPackBuf(j.pa)
	}
	j.c, j.a, j.b, j.pb, j.pa = nil, nil, nil, nil, nil
	panelJobFree.Put(j)
}

// gemmNTPacked computes C (+)= A·Bᵀ for B (n,k) with the BLIS-style shared
// pack: each panelKC×panelNC panel of the effective Bᵀ is packed once per
// call, cooperatively, into one pooled buffer in 8-wide k-major column
// strips (the pack IS the transpose: each B row is read contiguously along
// k), then all workers sweep their disjoint C row ranges over it with the
// strip kernel, which keeps eight C accumulators in registers across the
// panel's k extent. A is (m,k) row-major and is read in place.
func gemmNTPacked(c, a, b []float32, m, k, n int, accumulate bool) {
	j := getPanelJob(c, a, b, m, k, n, accumulate)
	for k0 := 0; k0 < k; k0 += panelKC {
		j.k0, j.kcur = k0, min(panelKC, k-k0)
		for j0 := 0; j0 < n; j0 += panelNC {
			j.j0, j.ncur = j0, min(panelNC, n-j0)
			// The pack fans out over B rows (panel columns), not panel
			// k-rows: that is the operand's contiguous axis.
			parallel.Run(j.ncur, gemmPackGrain, j, gemmPackStripNTChunk)
			parallel.Run(m, gemmMR, j, gemmStripSweepChunk)
		}
	}
	putPanelJob(j)
}

// gemmTNPacked computes C (+)= Aᵀ·B for A (k,m) and B (k,n). A is
// transpose-packed per (row block, k panel) into a second pooled buffer the
// sweeps read as row-major A; B is row-major, so its panels are packed as
// plain row copies. The row block is bounded so the packed Aᵀ block always
// fits one pooled buffer; B panels are re-packed per row block.
func gemmTNPacked(c, a, b []float32, m, k, n int, accumulate bool) {
	const mc = packBufCap / panelKC
	j := getPanelJob(c, a, b, m, k, n, accumulate)
	j.pa = getPackBuf()
	for i0 := 0; i0 < m; i0 += mc {
		j.i0, j.mcur = i0, min(mc, m-i0)
		for k0 := 0; k0 < k; k0 += panelKC {
			j.k0, j.kcur = k0, min(panelKC, k-k0)
			parallel.Run(j.mcur, gemmPackGrain, j, gemmPackATChunk)
			for j0 := 0; j0 < n; j0 += panelNC {
				j.j0, j.ncur = j0, min(panelNC, n-j0)
				parallel.Run(j.kcur, gemmPackGrain, j, gemmPackPanelChunk)
				parallel.Run(j.mcur, gemmMR, j, gemmSweepChunk)
			}
		}
	}
	putPanelJob(j)
}

// gemmPackPanelChunk copies panel rows [lo,hi) (relative to k0) of the
// current kc×nc panel of B into the shared buffer, making rows adjacent
// (stride ncur instead of n). Chunks touch disjoint panel rows.
func gemmPackPanelChunk(ctx any, lo, hi int) {
	g := ctx.(*panelJob)
	b, pb := g.b, g.pb
	n, k0, j0, ncur := g.n, g.k0, g.j0, g.ncur
	for kk := lo; kk < hi; kk++ {
		copy(pb[kk*ncur:kk*ncur+ncur], b[(k0+kk)*n+j0:(k0+kk)*n+j0+ncur])
	}
}

// gemmSweepChunk updates C rows i0+lo..i0+hi, cols [j0,j0+ncur) from the
// shared packed panel with the register micro-kernel, reading A rows from
// the packed Aᵀ block (row stride kcur). On the first k panel of a
// non-accumulating product it also zeroes its C band (each band is touched
// by exactly one chunk per panel, so the zeroing races with nothing).
func gemmSweepChunk(ctx any, lo, hi int) {
	g := ctx.(*panelJob)
	c, pa, pb := g.c, g.pa, g.pb
	n := g.n
	k0, kcur, j0, ncur := g.k0, g.kcur, g.j0, g.ncur
	aOff := lo * kcur
	lo, hi = lo+g.i0, hi+g.i0
	if k0 == 0 && !g.accumulate {
		for i := lo; i < hi; i++ {
			zeroSlice(c[i*n+j0 : i*n+j0+ncur])
		}
	}
	micro4, micro1 := gemmMicro4, gemmMicro1
	if useAVX2 {
		micro4, micro1 = gemmMicro4AVX2, gemmMicro1AVX2
	}
	i := lo
	for ; i+gemmMR <= hi; i += gemmMR {
		micro4(c, pa, pb, aOff, kcur, 0, ncur, i, n, kcur, j0, ncur)
		aOff += gemmMR * kcur
	}
	for ; i < hi; i++ {
		micro1(c, pa, pb, aOff, kcur, 0, ncur, i, n, kcur, j0, ncur)
		aOff += kcur
	}
}

// gemmPackStripNTChunk packs panel columns [lo,hi) (relative to j0) of the
// effective Bᵀ panel in the strip layout: the kc×nc panel is stored as a
// sequence of 8-wide column strips, each strip k-major and contiguous —
// strip js/8 occupies pb[js·kcur : js·kcur + kcur·8], element (kk, jj) at
// offset kk·8 + jj%8 — so the strip sweep streams B strictly sequentially.
// Element (kk, jj) of the panel is B[(j0+jj)·k + k0+kk]: each B row is read
// contiguously along its k extent and scattered with stride 8. A ragged
// final strip (ncur not a multiple of 8) keeps stride 8; its tail floats
// are left unwritten and never read. Chunks touch disjoint panel columns.
func gemmPackStripNTChunk(ctx any, lo, hi int) {
	g := ctx.(*panelJob)
	b, pb := g.b, g.pb
	k, k0, j0, kcur := g.k, g.k0, g.j0, g.kcur
	for jj := lo; jj < hi; jj++ {
		brow := b[(j0+jj)*k+k0 : (j0+jj)*k+k0+kcur]
		ps := pb[(jj&^7)*kcur+(jj&7):]
		for kk, v := range brow {
			ps[kk*8] = v
		}
	}
}

// gemmPackATChunk transpose-packs rows [lo,hi) (relative to i0) of the
// current (row block, k panel) block of the effective Aᵀ for TMatMul:
// pa[i'·kcur + kk] = a[(k0+kk)·m + i0+i']. The pack walks 32×32 tiles
// (like TransposeInto): within a tile the inner loop reads a source row of
// A contiguously and the 32 destination rows it scatters into stay
// cache-resident, so each source cache line is loaded once — the previous
// per-element gather walked down A's columns and paid a cache line per
// element, a constant that dominated the pack at kc=512 on small-n
// products. A pure relocation either way: the packed bytes, and therefore
// the product, are bitwise-unchanged (pinned by TestGemmPackATTiledGolden).
// Chunks write disjoint packed rows.
func gemmPackATChunk(ctx any, lo, hi int) {
	g := ctx.(*panelJob)
	a, pa := g.a, g.pa
	m, k0, kcur, i0 := g.m, g.k0, g.kcur, g.i0
	const tile = 32
	for ii0 := lo; ii0 < hi; ii0 += tile {
		ii1 := min(ii0+tile, hi)
		for kk0 := 0; kk0 < kcur; kk0 += tile {
			kk1 := min(kk0+tile, kcur)
			for kk := kk0; kk < kk1; kk++ {
				src := a[(k0+kk)*m+i0+ii0 : (k0+kk)*m+i0+ii1]
				dst := pa[ii0*kcur+kk:]
				for j, v := range src {
					dst[j*kcur] = v
				}
			}
		}
	}
}

// gemmStripSweepChunk updates C rows [lo,hi) from a strip-packed panel with
// the strip kernel: per row and 8-wide column strip, eight accumulators
// live in registers across the whole k sweep and C round-trips through
// memory once per panel (the 4-row micro-kernel reads and writes C every
// second k step). B streams sequentially from the strip; A is read in place.
//
// Bitwise contract: the accumulators are seeded from C (or zero on the
// first panel of a non-accumulating product) and updated with the same
// `c += a0·b0 + a1·b1` pairwise expression as gemmMicro4, so each element
// sees the identical sequence of float32 operations — staging the partial
// sum in a register instead of memory does not change its value.
func gemmStripSweepChunk(ctx any, lo, hi int) {
	g := ctx.(*panelJob)
	if useAVX2 {
		gemmStripSweepAVX2(g, lo, hi)
		return
	}
	c, a, pb := g.c, g.a, g.pb
	k, n := g.k, g.n
	k0, kcur, j0, ncur := g.k0, g.kcur, g.j0, g.ncur
	aOff := lo*k + k0
	seed := g.accumulate || k0 > 0
	for i := lo; i < hi; i++ {
		ai := a[aOff : aOff+kcur]
		aOff += k
		ci := c[i*n+j0 : i*n+j0+ncur]
		for js := 0; js < ncur; js += 8 {
			bs := pb[js*kcur:]
			if ncur-js >= 8 {
				gemmStrip8(ci[js:js+8], ai, bs, kcur, seed)
			} else {
				gemmStripTail(ci[js:], ai, bs, kcur, seed)
			}
		}
	}
}

// gemmStrip8 updates one C row's 8-wide column strip from a k-major strip
// of the packed panel. The 2-wide k unroll matches gemmMicro4's pairwise
// association exactly; the eight accumulators stay in registers.
func gemmStrip8(ci, ai []float32, bs []float32, kcur int, seed bool) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float32
	_ = ci[7]
	if seed {
		c0, c1, c2, c3 = ci[0], ci[1], ci[2], ci[3]
		c4, c5, c6, c7 = ci[4], ci[5], ci[6], ci[7]
	}
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		bp := bs[kk*8 : kk*8+16]
		a0, a1 := ai[kk], ai[kk+1]
		c0 += a0*bp[0] + a1*bp[8]
		c1 += a0*bp[1] + a1*bp[9]
		c2 += a0*bp[2] + a1*bp[10]
		c3 += a0*bp[3] + a1*bp[11]
		c4 += a0*bp[4] + a1*bp[12]
		c5 += a0*bp[5] + a1*bp[13]
		c6 += a0*bp[6] + a1*bp[14]
		c7 += a0*bp[7] + a1*bp[15]
	}
	if kk < kcur {
		bp := bs[kk*8 : kk*8+8]
		a0 := ai[kk]
		c0 += a0 * bp[0]
		c1 += a0 * bp[1]
		c2 += a0 * bp[2]
		c3 += a0 * bp[3]
		c4 += a0 * bp[4]
		c5 += a0 * bp[5]
		c6 += a0 * bp[6]
		c7 += a0 * bp[7]
	}
	ci[0], ci[1], ci[2], ci[3] = c0, c1, c2, c3
	ci[4], ci[5], ci[6], ci[7] = c4, c5, c6, c7
}

// gemmStripTail is the ragged final strip (width 1..7) of gemmStrip8; the
// strip keeps stride 8 in the packed buffer, only width values are read.
func gemmStripTail(ci, ai []float32, bs []float32, kcur int, seed bool) {
	var acc [8]float32
	w := len(ci)
	if seed {
		copy(acc[:w], ci)
	}
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		bp := bs[kk*8 : kk*8+8+w]
		a0, a1 := ai[kk], ai[kk+1]
		for j := 0; j < w; j++ {
			acc[j] += a0*bp[j] + a1*bp[8+j]
		}
	}
	if kk < kcur {
		bp := bs[kk*8 : kk*8+w]
		a0 := ai[kk]
		for j := 0; j < w; j++ {
			acc[j] += a0 * bp[j]
		}
	}
	copy(ci, acc[:w])
}

// gemmDirectChunk computes C rows [lo,hi) reading B in place (no panel
// packing): the micro-kernel's inner loops stay contiguous along B rows,
// only the row stride changes from ncur to n. Each chunk runs the full
// blocked panel loop independently — there is no shared state, so the rows
// fan out at micro-kernel granularity.
func gemmDirectChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	micro4, micro1 := gemmMicro4, gemmMicro1
	if useAVX2 {
		micro4, micro1 = gemmMicro4AVX2, gemmMicro1AVX2
	}
	for k0 := 0; k0 < k; k0 += directKC {
		kcur := min(directKC, k-k0)
		for j0 := 0; j0 < n; j0 += directNC {
			ncur := min(directNC, n-j0)
			i := lo
			for ; i+gemmMR <= hi; i += gemmMR {
				micro4(c, a, b, i*k+k0, k, k0*n+j0, n, i, n, kcur, j0, ncur)
			}
			for ; i < hi; i++ {
				micro1(c, a, b, i*k+k0, k, k0*n+j0, n, i, n, kcur, j0, ncur)
			}
		}
	}
}

// gemmMicro4 updates C rows i..i+3, cols [j0,j0+ncur) from kcur rows of B
// starting at bp[bOff] with row stride bStride — a packed panel (bOff=0,
// bStride=ncur) or B read in place (bOff=k0·n+j0, bStride=n); the inner
// loop is contiguous either way. A rows likewise start at a[aOff] with row
// stride aStride — A read in place (aOff=i·k+k0, aStride=k) or a
// transpose-packed block (see gemmSweepChunk). The 2-wide k unroll halves
// C read/write traffic per flop; the four A scalars per k-step live in
// registers across the j loop.
func gemmMicro4(c, a, bp []float32, aOff, aStride, bOff, bStride, i, n, kcur, j0, ncur int) {
	ci0 := c[i*n+j0 : i*n+j0+ncur]
	ci1 := c[(i+1)*n+j0 : (i+1)*n+j0+ncur]
	ci2 := c[(i+2)*n+j0 : (i+2)*n+j0+ncur]
	ci3 := c[(i+3)*n+j0 : (i+3)*n+j0+ncur]
	ai0 := a[aOff : aOff+kcur]
	ai1 := a[aOff+aStride : aOff+aStride+kcur]
	ai2 := a[aOff+2*aStride : aOff+2*aStride+kcur]
	ai3 := a[aOff+3*aStride : aOff+3*aStride+kcur]
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		b1 := bp[o+bStride : o+bStride+ncur]
		a00, a01 := ai0[kk], ai0[kk+1]
		a10, a11 := ai1[kk], ai1[kk+1]
		a20, a21 := ai2[kk], ai2[kk+1]
		a30, a31 := ai3[kk], ai3[kk+1]
		_ = b1[len(b0)-1]
		_ = ci0[len(b0)-1]
		_ = ci1[len(b0)-1]
		_ = ci2[len(b0)-1]
		_ = ci3[len(b0)-1]
		for j, v0 := range b0 {
			v1 := b1[j]
			ci0[j] += a00*v0 + a01*v1
			ci1[j] += a10*v0 + a11*v1
			ci2[j] += a20*v0 + a21*v1
			ci3[j] += a30*v0 + a31*v1
		}
	}
	if kk < kcur {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		a0, a1, a2, a3 := ai0[kk], ai1[kk], ai2[kk], ai3[kk]
		_ = ci0[len(b0)-1]
		_ = ci1[len(b0)-1]
		_ = ci2[len(b0)-1]
		_ = ci3[len(b0)-1]
		for j, v := range b0 {
			ci0[j] += a0 * v
			ci1[j] += a1 * v
			ci2[j] += a2 * v
			ci3[j] += a3 * v
		}
	}
}

// gemmMicro1 is the single-row remainder of gemmMicro4.
func gemmMicro1(c, a, bp []float32, aOff, aStride, bOff, bStride, i, n, kcur, j0, ncur int) {
	ci := c[i*n+j0 : i*n+j0+ncur]
	ai := a[aOff : aOff+kcur]
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		b1 := bp[o+bStride : o+bStride+ncur]
		a0, a1 := ai[kk], ai[kk+1]
		_ = b1[len(b0)-1]
		_ = ci[len(b0)-1]
		for j, v0 := range b0 {
			ci[j] += a0*v0 + a1*b1[j]
		}
	}
	if kk < kcur {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		a0 := ai[kk]
		_ = ci[len(b0)-1]
		for j, v := range b0 {
			ci[j] += a0 * v
		}
	}
}

// gemmSaxpyChunk is the seed kernel, kept for small/skinny shapes (and as
// the benchmark baseline): k-blocked i-k-j loops whose inner loop is a
// saxpy over contiguous rows of B and C.
func gemmSaxpyChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	const blockM, blockK = 64, 128
	for i0 := lo; i0 < hi; i0 += blockM {
		i1 := min(i0+blockM, hi)
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := min(k0+blockK, k)
			for i := i0; i < i1; i++ {
				ci := c[i*n : (i+1)*n]
				ai := a[i*k : (i+1)*k]
				for kk := k0; kk < k1; kk++ {
					av := ai[kk]
					if av == 0 {
						continue
					}
					saxpy(ci, b[kk*n:kk*n+n], av)
				}
			}
		}
	}
}

// saxpy computes ci += av * bk elementwise; split out so the compiler keeps
// the loop tight and bounds-check eliminated.
func saxpy(ci, bk []float32, av float32) {
	_ = ci[len(bk)-1]
	for j := range bk {
		ci[j] += av * bk[j]
	}
}

func zeroSlice(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// MatMulT computes C = A·Bᵀ for A (m,k) and B (n,k) without materializing
// the transpose. Used for weight-gradient and input-gradient passes.
func MatMulT(a, b *Tensor) *Tensor {
	m, k, n := gemmTDims(a, b)
	c := New(m, n)
	gemmT(c.data, a.data, b.data, m, k, n, false)
	return c
}

// MatMulTInto computes C (+)= A·Bᵀ into an existing (m,n) tensor without
// allocating.
func MatMulTInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := gemmTDims(a, b)
	if c.Len() != m*n {
		panic(fmt.Sprintf("tensor: MatMulTInto output has %d elements, want %d", c.Len(), m*n))
	}
	gemmT(c.data, a.data, b.data, m, k, n, accumulate)
}

func gemmTDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT requires rank-2 tensors")
	}
	m, k = a.shape[0], a.shape[1]
	n = b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulT inner dimensions %d and %d differ", k, b.shape[1]))
	}
	return m, k, n
}

// gemmT dispatches C (+)= A·Bᵀ. Large shapes run the shared-pack strip
// pipeline (gemmNTPacked); small or skinny shapes keep the 4×4 register
// tiles, whose tile setup cost fits them better.
func gemmT(c, a, b []float32, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			zeroSlice(c[:m*n])
		}
		return
	}
	if m >= gemmMR && n >= 16 && k >= 16 {
		gemmNTPacked(c, a, b, m, k, n, accumulate)
		return
	}
	j := getGemmJob()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	parallel.Run(m, gemmGrain, j, gemmTChunk)
	putGemmJob(j)
}

// gemmTChunk computes C rows [lo,hi) of C = A·Bᵀ with 4×4 register tiles:
// both operands are read along contiguous k-rows, 16 fused multiply-adds
// per 8 loads (the seed's dot kernel did 1 per 2). k is blocked so the
// four A rows and four B rows of a tile stay L1-resident. Kept as the
// small-shape path and the benchmark baseline the shared-pack pipeline is
// gated against (BenchmarkMatMulT/tiled).
func gemmTChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	for k0 := 0; k0 < k; k0 += tiledKC {
		k1 := min(k0+tiledKC, k)
		kcur := k1 - k0
		i := lo
		for ; i+4 <= hi; i += 4 {
			ai0 := a[i*k+k0 : i*k+k0+kcur]
			ai1 := a[(i+1)*k+k0 : (i+1)*k+k0+kcur]
			ai2 := a[(i+2)*k+k0 : (i+2)*k+k0+kcur]
			ai3 := a[(i+3)*k+k0 : (i+3)*k+k0+kcur]
			jj := 0
			for ; jj+4 <= n; jj += 4 {
				bj0 := b[jj*k+k0 : jj*k+k0+kcur]
				bj1 := b[(jj+1)*k+k0 : (jj+1)*k+k0+kcur]
				bj2 := b[(jj+2)*k+k0 : (jj+2)*k+k0+kcur]
				bj3 := b[(jj+3)*k+k0 : (jj+3)*k+k0+kcur]
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				var s20, s21, s22, s23 float32
				var s30, s31, s32, s33 float32
				_ = bj0[len(ai0)-1]
				_ = bj1[len(ai0)-1]
				_ = bj2[len(ai0)-1]
				_ = bj3[len(ai0)-1]
				_ = ai1[len(ai0)-1]
				_ = ai2[len(ai0)-1]
				_ = ai3[len(ai0)-1]
				for kk, a0 := range ai0 {
					b0, b1, b2, b3 := bj0[kk], bj1[kk], bj2[kk], bj3[kk]
					a1, a2, a3 := ai1[kk], ai2[kk], ai3[kk]
					s00 += a0 * b0
					s01 += a0 * b1
					s02 += a0 * b2
					s03 += a0 * b3
					s10 += a1 * b0
					s11 += a1 * b1
					s12 += a1 * b2
					s13 += a1 * b3
					s20 += a2 * b0
					s21 += a2 * b1
					s22 += a2 * b2
					s23 += a2 * b3
					s30 += a3 * b0
					s31 += a3 * b1
					s32 += a3 * b2
					s33 += a3 * b3
				}
				c[i*n+jj] += s00
				c[i*n+jj+1] += s01
				c[i*n+jj+2] += s02
				c[i*n+jj+3] += s03
				c[(i+1)*n+jj] += s10
				c[(i+1)*n+jj+1] += s11
				c[(i+1)*n+jj+2] += s12
				c[(i+1)*n+jj+3] += s13
				c[(i+2)*n+jj] += s20
				c[(i+2)*n+jj+1] += s21
				c[(i+2)*n+jj+2] += s22
				c[(i+2)*n+jj+3] += s23
				c[(i+3)*n+jj] += s30
				c[(i+3)*n+jj+1] += s31
				c[(i+3)*n+jj+2] += s32
				c[(i+3)*n+jj+3] += s33
			}
			for ; jj < n; jj++ {
				bj := b[jj*k+k0 : jj*k+k0+kcur]
				c[i*n+jj] += dot(ai0, bj)
				c[(i+1)*n+jj] += dot(ai1, bj)
				c[(i+2)*n+jj] += dot(ai2, bj)
				c[(i+3)*n+jj] += dot(ai3, bj)
			}
		}
		for ; i < hi; i++ {
			ai := a[i*k+k0 : i*k+k0+kcur]
			for jj := 0; jj < n; jj++ {
				c[i*n+jj] += dot(ai, b[jj*k+k0:jj*k+k0+kcur])
			}
		}
	}
}

// TMatMul computes C = Aᵀ·B for A (k,m) and B (k,n) without materializing
// the transpose.
func TMatMul(a, b *Tensor) *Tensor {
	k, m, n := tGemmDims(a, b)
	c := New(m, n)
	tGemm(c.data, a.data, b.data, m, k, n, false)
	return c
}

// TMatMulInto computes C (+)= Aᵀ·B into an existing (m,n) tensor without
// allocating.
func TMatMulInto(c, a, b *Tensor, accumulate bool) {
	k, m, n := tGemmDims(a, b)
	if c.Len() != m*n {
		panic(fmt.Sprintf("tensor: TMatMulInto output has %d elements, want %d", c.Len(), m*n))
	}
	tGemm(c.data, a.data, b.data, m, k, n, accumulate)
}

func tGemmDims(a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: TMatMul requires rank-2 tensors")
	}
	k, m = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: TMatMul inner dimensions %d and %d differ", k, b.shape[0]))
	}
	n = b.shape[1]
	return k, m, n
}

// tGemm dispatches C (+)= Aᵀ·B. Large shapes run the shared-pack panel
// pipeline (gemmTNPacked); small or skinny shapes keep the 4×4 register
// tiles.
func tGemm(c, a, b []float32, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			zeroSlice(c[:m*n])
		}
		return
	}
	if m >= gemmMR && n >= 16 && k >= 16 {
		gemmTNPacked(c, a, b, m, k, n, accumulate)
		return
	}
	j := getGemmJob()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	parallel.Run(m, gemmGrain, j, tGemmChunk)
	putGemmJob(j)
}

// tGemmChunk computes C rows [lo,hi) of C = Aᵀ·B with 4×4 register tiles.
// For each k step the tile loads 4 contiguous A values and 4 contiguous B
// values (both along the rows of the k-major operands) and performs 16
// fused multiply-adds; k is blocked so a tile's A column slab stays cached
// across the j sweep. Kept as the small-shape path and the benchmark
// baseline the shared-pack pipeline is gated against (BenchmarkTMatMul/tiled).
func tGemmChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	m := g.m
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	for k0 := 0; k0 < k; k0 += tiledKC {
		k1 := min(k0+tiledKC, k)
		i := lo
		for ; i+4 <= hi; i += 4 {
			jj := 0
			for ; jj+4 <= n; jj += 4 {
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				var s20, s21, s22, s23 float32
				var s30, s31, s32, s33 float32
				for kk := k0; kk < k1; kk++ {
					ar := a[kk*m+i : kk*m+i+4]
					br := b[kk*n+jj : kk*n+jj+4]
					a0, a1, a2, a3 := ar[0], ar[1], ar[2], ar[3]
					b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
					s00 += a0 * b0
					s01 += a0 * b1
					s02 += a0 * b2
					s03 += a0 * b3
					s10 += a1 * b0
					s11 += a1 * b1
					s12 += a1 * b2
					s13 += a1 * b3
					s20 += a2 * b0
					s21 += a2 * b1
					s22 += a2 * b2
					s23 += a2 * b3
					s30 += a3 * b0
					s31 += a3 * b1
					s32 += a3 * b2
					s33 += a3 * b3
				}
				c[i*n+jj] += s00
				c[i*n+jj+1] += s01
				c[i*n+jj+2] += s02
				c[i*n+jj+3] += s03
				c[(i+1)*n+jj] += s10
				c[(i+1)*n+jj+1] += s11
				c[(i+1)*n+jj+2] += s12
				c[(i+1)*n+jj+3] += s13
				c[(i+2)*n+jj] += s20
				c[(i+2)*n+jj+1] += s21
				c[(i+2)*n+jj+2] += s22
				c[(i+2)*n+jj+3] += s23
				c[(i+3)*n+jj] += s30
				c[(i+3)*n+jj+1] += s31
				c[(i+3)*n+jj+2] += s32
				c[(i+3)*n+jj+3] += s33
			}
			for ; jj < n; jj++ {
				var s0, s1, s2, s3 float32
				for kk := k0; kk < k1; kk++ {
					ar := a[kk*m+i : kk*m+i+4]
					bv := b[kk*n+jj]
					s0 += ar[0] * bv
					s1 += ar[1] * bv
					s2 += ar[2] * bv
					s3 += ar[3] * bv
				}
				c[i*n+jj] += s0
				c[(i+1)*n+jj] += s1
				c[(i+2)*n+jj] += s2
				c[(i+3)*n+jj] += s3
			}
		}
		for ; i < hi; i++ {
			for jj := 0; jj < n; jj++ {
				var s float32
				for kk := k0; kk < k1; kk++ {
					s += a[kk*m+i] * b[kk*n+jj]
				}
				c[i*n+jj] += s
			}
		}
	}
}

func dot(a, b []float32) float32 {
	var s float32
	_ = b[len(a)-1]
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Transpose returns a new tensor that is the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	t := New(a.shape[1], a.shape[0])
	TransposeInto(t, a)
	return t
}

// TransposeInto writes the transpose of rank-2 a into t (shape (n,m) for a
// (m,n)) without allocating, parallelized over row tiles.
func TransposeInto(t, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	m, n := a.shape[0], a.shape[1]
	if t.Len() != m*n {
		panic(fmt.Sprintf("tensor: TransposeInto output has %d elements, want %d", t.Len(), m*n))
	}
	j := getGemmJob()
	j.c, j.a = t.data, a.data
	j.m, j.n = m, n
	// Parallel over 32-row tiles: each chunk writes disjoint t columns.
	parallel.Run((m+transTile-1)/transTile, 1, j, transposeChunk)
	putGemmJob(j)
}

const transTile = 32

func transposeChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	t, a := g.c, g.a
	m, n := g.m, g.n
	for ti := lo; ti < hi; ti++ {
		i0 := ti * transTile
		i1 := min(i0+transTile, m)
		for j0 := 0; j0 < n; j0 += transTile {
			j1 := min(j0+transTile, n)
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					t[j*m+i] = a[i*n+j]
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
