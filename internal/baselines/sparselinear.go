// Package baselines implements the comparator systems of the evaluation
// that are not part of AxoNN+SAMO itself. The DeepSpeed-3D and Sputnik
// *performance* models live in internal/simulate (they are simulator
// methods); this package holds the *executable* Sputnik-style baseline: a
// fully connected layer whose weights stay in CSR and whose forward/backward
// run real sparse kernels (SpMM and SDDMM, the two kernels Gale et al.'s
// Sputnik provides), with the density-aware crossover rule bypassed so the
// sparse path runs unconditionally. Since the sparse execution path became
// first-class (nn.SparseLinear), this is a thin pin of that layer to
// ExecSparse plus the plain-SGD machinery the baseline comparisons use.
package baselines

import (
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// SparseLinear is y = x·Wᵀ + b with W (out, in) stored in CSR, always
// executed sparse (ExecSparse): the pure-sparse design SAMO deliberately
// avoids for compute, kept runnable for benchmarks and equivalence tests.
type SparseLinear struct {
	*nn.SparseLinear
}

// NewSparseLinear builds the layer from a dense weight matrix (in, out) and
// a pruning index over its linearized view, keeping only unpruned entries.
// The rng parameter is retained for constructor symmetry with nn.NewLinear
// (the bias starts at zero either way).
func NewSparseLinear(name string, dense *tensor.Tensor, ix *sparse.Index, _ *tensor.RNG) *SparseLinear {
	l := nn.NewSparseLinear(name, dense, ix)
	l.Exec = nn.ExecSparse
	return &SparseLinear{SparseLinear: l}
}

// Forward computes y = x·Wᵀ + b on the sparse kernels (no arena — the
// baseline is exercised standalone, outside the trainer's step lifecycle).
func (l *SparseLinear) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	return l.SparseLinear.Forward(nil, x, train)
}

// Backward computes the weight gradient restricted to the sparsity pattern
// with SDDMM and the input gradient with the transposed SpMM — exactly the
// kernel pair Sputnik accelerates.
func (l *SparseLinear) Backward(cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	return l.SparseLinear.Backward(nil, cache, gradOut)
}

// ApplyGradients runs a plain SGD step on the sparse values and bias,
// clearing the accumulators — enough machinery to demonstrate end-to-end
// sparse training. The cached transpose needs no refresh here: it is
// re-synced from the primary values at its next use.
func (l *SparseLinear) ApplyGradients(lr float32) {
	w, g := l.Wv.Value.Data(), l.Wv.Grad.Data()
	for i := range w {
		w[i] -= lr * g[i]
		g[i] = 0
	}
	b, gb := l.B.Value.Data(), l.B.Grad.Data()
	for i := range b {
		b[i] -= lr * gb[i]
		gb[i] = 0
	}
}

// Bytes reports the storage of the sparse weights (values + metadata) —
// what the Sputnik baseline saves relative to a dense fp32 weight.
func (l *SparseLinear) Bytes() int64 { return l.WeightBytes() }
