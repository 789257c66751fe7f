package sparse

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// useAVX2 selects the AVX2 SpMMT panel kernel (spmmt_amd64.s) over
// spmmtChunk. It follows the dense kernels' one-time CPUID selection, so it
// is false on other GOARCHes and on CPUs without AVX2. Both kernels compute
// every output element with the same float32 operations in CSR p order, so
// the choice never changes a result; the tests clear it to run spmmtChunk
// as their bitwise reference.
var useAVX2 = tensor.KernelSet() == "avx2"

// spmmtLanes is the batch rows per packed panel: four 8-wide accumulators.
const spmmtLanes = 32

// spmmtScratch is one worker's packed B panel (k-major, panel[c·32 + r] =
// B[i0+r][c]) and output block (out[j·32 + r] = C[i0+r][j]). It recycles
// through a parallel.Pool and its buffers only grow, so steady-state calls
// allocate nothing.
type spmmtScratch struct {
	panel, out []float32
}

var spmmtScratchFree parallel.Pool[spmmtScratch]

func growFloats(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// spmmtPanelChunk computes C rows [32·lo, 32·hi) of C = B·Sᵀ (clipped to
// the batch): per 32-row panel it transposes the B rows into the k-major
// panel (zero-padding a short final panel), runs the assembly kernel over
// every sparse row, and transposes the output block into the C rows.
func spmmtPanelChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, bd, cd, k, n := g.m, g.b, g.out, g.k, g.n
	rows := m.Rows
	s := spmmtScratchFree.Get()
	s.panel = growFloats(s.panel, k*spmmtLanes)
	s.out = growFloats(s.out, rows*spmmtLanes)
	panel, out := s.panel, s.out
	for p := lo; p < hi; p++ {
		i0 := p * spmmtLanes
		nr := min(spmmtLanes, n-i0)
		transpose(panel, spmmtLanes, bd[i0*k:], k, nr, k)
		if nr < spmmtLanes {
			for c := 0; c < k; c++ {
				clear(panel[c*spmmtLanes+nr : (c+1)*spmmtLanes])
			}
		}
		spmmtPanelAVX2(out, panel, m.RowPtr, m.ColIdx, m.Val)
		transpose(cd[i0*rows:], rows, out, spmmtLanes, rows, nr)
	}
	spmmtScratchFree.Put(s)
}

// transpose writes dst[c·ldd + r] = src[r·lds + c] for r < nr, c < nc:
// the 8-aligned block in AVX2 8×8 tiles (bounds-checked here, so the
// assembly stays inside both slices), the ragged edges in Go.
func transpose(dst []float32, ldd int, src []float32, lds, nr, nc int) {
	r8, c8 := nr&^7, nc&^7
	if r8 > 0 && c8 > 0 {
		_ = src[(r8-1)*lds+c8-1]
		_ = dst[(c8-1)*ldd+r8-1]
		transposeAVX2(dst, ldd, src, lds, r8, c8)
	}
	for r := 0; r < nr; r++ {
		c0 := c8
		if r >= r8 {
			c0 = 0
		}
		for c := c0; c < nc; c++ {
			dst[c*ldd+r] = src[r*lds+c]
		}
	}
}

// checkPattern panics unless RowPtr is a monotone walk of Val starting at
// 0 and every column index lies in [0, Cols): the invariants the assembly
// kernel relies on instead of per-element bounds checks.
func (m *CSR) checkPattern() {
	if len(m.RowPtr) != m.Rows+1 || m.RowPtr[0] != 0 || int(m.RowPtr[m.Rows]) > min(len(m.Val), len(m.ColIdx)) {
		panic(fmt.Sprintf("sparse: malformed CSR row pointers for a %dx%d matrix", m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			panic(fmt.Sprintf("sparse: CSR row pointers decrease at row %d", i))
		}
	}
	for _, c := range m.ColIdx[:m.RowPtr[m.Rows]] {
		if uint32(c) >= uint32(m.Cols) {
			panic(fmt.Sprintf("sparse: CSR column index %d outside [0,%d)", c, m.Cols))
		}
	}
}
