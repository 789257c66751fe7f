package sparse

import "math/bits"

// Sparse/dense execution crossover. The sparsity literature's consistent
// finding (Hoefler et al. 2021; the paper's Figure 1) is that sparse kernels
// beat dense ones only above a density-dependent threshold: below it, the
// dense kernel's register blocking and contiguous streaming outweigh the
// flop savings. With the SpMMT and GEMM kernels fixed, where that
// threshold sits is a property of the code, so the choice is one pure
// function of the product and the pattern density (Xover). It must not
// depend on timing: the two paths are NOT bitwise identical (they sum
// different terms in different orders), and a fixed rule keeps every run,
// process and amd64 machine on the same path.

// XoverChoice is one execution path of a sparse-or-dense product.
type XoverChoice uint8

const (
	// XoverSparse runs the CSR kernel (SpMMT).
	XoverSparse XoverChoice = iota
	// XoverDense runs the dense GEMM against a masked-dense materialization.
	XoverDense
)

func (c XoverChoice) String() string {
	if c == XoverDense {
		return "dense"
	}
	return "sparse"
}

// XoverOp identifies which product of a sparse layer a decision is for.
// The rule treats them apart: their dense paths are different GEMMs (A·Bᵀ
// and A·B) with different costs.
type XoverOp uint8

const (
	// XoverOpForward is the y = x·Wᵀ product.
	XoverOpForward XoverOp = iota
	// XoverOpBackward is the dx = dy·W product.
	XoverOpBackward
)

// densityBand returns floor(log2(full/nnz)) clamped to a byte: band 0 keeps
// more than half of the full weights, each further band halves the density.
// Degenerate patterns (nnz ≤ 0 or full ≤ 0) are band 0.
func densityBand(nnz, full int) uint8 {
	if nnz <= 0 || full <= nnz {
		return 0
	}
	return uint8(bits.Len(uint(full/nnz)) - 1)
}

// Xover picks the execution path for one product of a sparse layer whose
// pattern stores nnz of full weights. It depends on nothing else, so a
// layer runs the same paths on every call, in every process.
//
// The forward always runs sparse: its dense path re-materializes the
// masked-dense weight (O(full)) on every call, and the interleaved sweep
// recorded in CHANGES.md (batch 1-576, square 64-512, density 0.05-0.9)
// never found it ahead by more than the quartile spread. The input
// gradient runs dense in band 0 — more than half of the weights kept —
// where the GEMM beat the CSR kernel at density 0.75 (up to 1.5x at batch
// ≤ 8) and the CSR kernel won or tied at density 0.5 and below. An empty
// pattern always runs sparse: there is nothing to multiply.
func Xover(op XoverOp, nnz, full int) XoverChoice {
	if op == XoverOpBackward && nnz > 0 && densityBand(nnz, full) == 0 {
		return XoverDense
	}
	return XoverSparse
}
