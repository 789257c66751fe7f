package sparse

import (
	"fmt"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// BenchmarkSpMM is the sparse-vs-dense kernel matrix of the FC forward
// product y = x·Wᵀ at the paper's batch (576) computed by the dense GEMM
// over the masked-dense weight versus the transposed-CSR SpMM, across the
// evaluation's sparsity range. scripts/bench.sh gates the high-sparsity points (≥90%) at
// MIN_SPMM_SPEEDUP — the whole premise of first-class sparse execution is
// that pruned FLOPs convert to time there — and records the full matrix in
// BENCH_kernels.json; at 50–75% sparsity the bare dense kernel is allowed
// to win. The layer's crossover rule (Xover) still runs the forward sparse
// there, because the layer's dense path also re-materializes the
// masked-dense weight on every call; the sweep behind the rule is recorded
// in CHANGES.md.
func BenchmarkSpMM(b *testing.B) {
	const batch = 576
	for _, dim := range []int{256, 512} {
		for _, sparsity := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
			w, denseW := randMaskedCSR(dim, dim, 1-sparsity, uint64(dim)+uint64(sparsity*100))
			x := randDense(batch, dim, uint64(dim)+1)
			y := tensor.New(batch, dim)
			b.Run(fmt.Sprintf("dense/%dx%.2f", dim, sparsity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.MatMulTInto(y, x, denseW, false)
				}
			})
			b.Run(fmt.Sprintf("sparse/%dx%.2f", dim, sparsity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.SpMMTInto(y, x)
				}
			})
		}
	}
}

// BenchmarkSDDMM times the weight-gradient kernel the sparse backward pass
// always takes (it computes only the surviving entries) against the full
// dense product it replaces. The dense loop is the bare GEMM — the
// masked-dense training path additionally owes a compress over the result,
// so the recorded ratio understates the sparse kernel's end-to-end edge.
func BenchmarkSDDMM(b *testing.B) {
	const batch = 576
	for _, dim := range []int{256, 512} {
		const sparsity = 0.9
		w, _ := randMaskedCSR(dim, dim, 1-sparsity, uint64(dim)+7)
		dyT := randDense(dim, batch, uint64(dim)+2)
		xT := randDense(dim, batch, uint64(dim)+3)
		grad := make([]float32, w.NNZ())
		dW := tensor.New(dim, dim)
		b.Run(fmt.Sprintf("dense/%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulTInto(dW, dyT, xT, false)
			}
		})
		b.Run(fmt.Sprintf("sparse/%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.SDDMMInto(grad, dyT, xT, false)
			}
		})
	}
}
