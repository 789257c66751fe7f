package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// sparsePair builds a masked-dense Linear and the SparseLinear holding the
// same pruned weights and bias.
func sparsePair(in, out int, sparsity float64, seed uint64) (*Linear, *SparseLinear, *sparse.Index) {
	rng := tensor.NewRNG(seed)
	dense := NewLinear("fc", in, out, rng)
	tensor.FillNormal(dense.B.Value, 0.5, rng)
	pr := prune.MagnitudePerLayer(
		[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, sparsity)
	ix := pr.Index("fc.weight")
	ix.Mask().Apply(dense.W.Value.Data())
	sl := NewSparseLinear("fc", dense.W.Value, ix)
	copy(sl.B.Value.Data(), dense.B.Value.Data())
	return dense, sl, ix
}

// TestSparseLinearMatchesMaskedDense pins both execution paths of the
// layer — the CSR kernels and the masked-dense GEMM fallback — against the
// masked-dense nn.Linear reference: same outputs, same input gradients,
// weight gradients equal to the dense gradient restricted to the pattern
// (and NO entries beyond it), same bias gradients. Run through an arena,
// as the trainer drives it.
func TestSparseLinearMatchesMaskedDense(t *testing.T) {
	for _, exec := range []ExecMode{ExecSparse, ExecDense} {
		t.Run(fmt.Sprintf("exec=%d", exec), func(t *testing.T) {
			dense, sl, ix := sparsePair(12, 9, 0.8, 1)
			sl.Exec = exec
			x := tensor.New(5, 12)
			tensor.FillNormal(x, 1, tensor.NewRNG(2))
			gy := tensor.New(5, 9)
			tensor.FillNormal(gy, 1, tensor.NewRNG(3))
			arena := tensor.NewArena()

			yd, cd := dense.Forward(nil, x, true)
			dense.W.ZeroGrad()
			dense.B.ZeroGrad()
			dxD := dense.Backward(nil, cd, gy)

			ys, cs := sl.Forward(arena, x, true)
			if d := tensor.MaxAbsDiff(yd, ys); d > 1e-4 {
				t.Errorf("forward diff %g", d)
			}
			dxS := sl.Backward(arena, cs, gy)
			if d := tensor.MaxAbsDiff(dxD, dxS); d > 1e-4 {
				t.Errorf("input grad diff %g", d)
			}
			if d := tensor.MaxAbsDiff(dense.B.Grad, sl.B.Grad); d > 1e-4 {
				t.Errorf("bias grad diff %g", d)
			}
			// The sparse weight gradient is the dense one sampled at the
			// pattern — compare through the (out, in) scatter.
			gradDense := tensor.New(9, 12)
			for i := 0; i < 9; i++ {
				for p := sl.W.RowPtr[i]; p < sl.W.RowPtr[i+1]; p++ {
					gradDense.Set(sl.GradVals()[p], i, int(sl.W.ColIdx[p]))
				}
			}
			back := tensor.Transpose(gradDense) // (in, out)
			wantComp := make([]float32, ix.NNZ())
			ix.Compress(wantComp, dense.W.Grad.Data())
			gotComp := make([]float32, ix.NNZ())
			ix.Compress(gotComp, back.Data())
			for i := range wantComp {
				if math.Abs(float64(wantComp[i]-gotComp[i])) > 1e-3 {
					t.Fatalf("weight grad %d: dense %g vs sparse %g", i, wantComp[i], gotComp[i])
				}
			}
			// No gradient storage exists beyond the pattern at all: the
			// parameter is exactly NNZ long.
			if sl.Wv.Grad.Len() != ix.NNZ() {
				t.Fatalf("gradient vector has %d entries, want exactly %d", sl.Wv.Grad.Len(), ix.NNZ())
			}
			arena.Reset()
		})
	}
}

// TestSparseLinearOptimizerAliasing pins the Wv.Value/W.Val alias both
// kernels' weight views depend on: a write through the parameter (what the
// optimizer's down-cast does) must be visible to the forward product and —
// after the backward's refresh — to the cached transpose.
func TestSparseLinearOptimizerAliasing(t *testing.T) {
	_, sl, _ := sparsePair(8, 6, 0.5, 5)
	sl.Exec = ExecSparse
	x := tensor.New(3, 8)
	tensor.FillNormal(x, 1, tensor.NewRNG(6))
	for i, v := range sl.Wv.Value.Data() {
		sl.Wv.Value.Data()[i] = 2 * v
	}
	sl.B.Value.Zero()
	y, c := sl.Forward(nil, x, true)
	// Forward must see the doubled weights through the alias.
	ref := tensor.MatMulT(x, sl.W.Dense())
	if d := tensor.MaxAbsDiff(y, ref); d > 1e-4 {
		t.Fatalf("forward does not see optimizer writes: diff %g", d)
	}
	// The backward's cached transpose must also see them.
	gy := tensor.New(3, 6)
	tensor.FillNormal(gy, 1, tensor.NewRNG(7))
	dx := sl.Backward(nil, c, gy)
	refDx := tensor.MatMul(gy, sl.W.Dense())
	if d := tensor.MaxAbsDiff(dx, refDx); d > 1e-4 {
		t.Fatalf("cached transpose stale after weight update: diff %g", d)
	}
}

// TestSparseLinearSGDTracksMaskedDense trains the sparse layer and its
// masked-dense twin side by side with plain SGD (pruned dense gradients
// masked to zero): after several steps the sparse weights must still equal
// the masked-dense ones. The layer's parameters must be exactly the
// NNZ-long weight vector and the bias, and at 90% sparsity they must take
// fewer bytes than the dense weight.
func TestSparseLinearSGDTracksMaskedDense(t *testing.T) {
	_, big, bix := sparsePair(64, 64, 0.9, 9)
	if big.NNZ() != bix.NNZ() {
		t.Fatalf("NNZ %d, pruning index has %d", big.NNZ(), bix.NNZ())
	}
	if got, denseBytes := big.WeightBytes(), int64(64*64*4); got >= denseBytes {
		t.Fatalf("sparse storage %d bytes not below dense %d", got, denseBytes)
	}

	dense, sl, ix := sparsePair(8, 6, 0.6, 7)
	sl.Exec = ExecSparse
	ps := sl.Params()
	if len(ps) != 2 || ps[0] != sl.Wv || ps[0].Value.Len() != ix.NNZ() || ps[1].Value.Len() != 6 {
		t.Fatalf("Params = %v, want the %d-long weight vector and the 6-long bias", ps, ix.NNZ())
	}
	x := tensor.New(4, 8)
	tensor.FillNormal(x, 1, tensor.NewRNG(8))
	targets := []int{0, 3, 1, 5}
	const lr = 0.05
	sgd := func(ps []*Param) {
		for _, p := range ps {
			w, g := p.Value.Data(), p.Grad.Data()
			for i := range w {
				w[i] -= lr * g[i]
				g[i] = 0
			}
		}
	}
	for step := 0; step < 5; step++ {
		yd, cd := dense.Forward(nil, x, true)
		_, gd := CrossEntropy(yd, targets)
		dense.W.ZeroGrad()
		dense.B.ZeroGrad()
		dense.Backward(nil, cd, gd)
		ix.Mask().Apply(dense.W.Grad.Data())
		sgd(dense.Params())

		ys, cs := sl.Forward(nil, x, true)
		_, gs := CrossEntropy(ys, targets)
		sl.Backward(nil, cs, gs)
		sgd(sl.Params())
	}
	if d := tensor.MaxAbsDiff(dense.W.Value, sl.DenseEquivalent()); d > 1e-3 {
		t.Errorf("weights diverged after sparse training: %g", d)
	}
	if d := tensor.MaxAbsDiff(dense.B.Value, sl.B.Value); d > 1e-3 {
		t.Errorf("biases diverged after sparse training: %g", d)
	}
}

// TestSparseLinearDenseCopyNeverStale pins the denseFresh protocol against
// path flips: a fresh flag set by one microbatch's dense forward must not
// let a LATER microbatch's dense backward skip re-materialization after the
// weights changed — the flag may only be consumed by the same microbatch
// that set it. (The sequence below flips a layer's Exec between
// microbatches, as a caller pinning paths may.)
func TestSparseLinearDenseCopyNeverStale(t *testing.T) {
	_, sl, _ := sparsePair(10, 8, 0.5, 21)
	x := tensor.New(4, 10)
	tensor.FillNormal(x, 1, tensor.NewRNG(22))
	gy := tensor.New(4, 8)
	tensor.FillNormal(gy, 1, tensor.NewRNG(23))

	// Microbatch 1: dense forward sets the fresh flag, sparse backward
	// leaves it unconsumed.
	sl.Exec = ExecDense
	_, c := sl.Forward(nil, x, true)
	sl.Exec = ExecSparse
	sl.Backward(nil, c, gy)
	// Optimizer step: weights change through the alias.
	for i, v := range sl.Wv.Value.Data() {
		sl.Wv.Value.Data()[i] = v + 1
	}
	// Microbatch 2: sparse forward, dense backward — must re-materialize.
	_, c = sl.Forward(nil, x, true)
	sl.Exec = ExecDense
	dx := sl.Backward(nil, c, gy)
	want := tensor.MatMul(gy, sl.W.Dense())
	if d := tensor.MaxAbsDiff(dx, want); d > 1e-4 {
		t.Fatalf("dense backward used a stale masked-dense copy: diff %g", d)
	}
}

// TestSparsify checks the layer surgery: pruned Linears become
// SparseLinears with the same bias and masked weights, other layers pass
// through, and the sparse model's eval forward matches the masked-dense
// original.
func TestSparsify(t *testing.T) {
	rng := tensor.NewRNG(11)
	m := BuildMLP("mlp", []int{16, 32, 8}, rng)
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, 0.75)
	// The reference masked-dense model: apply the masks in place.
	for _, e := range m.PruneLayers() {
		pr.Index(e.Name).Mask().Apply(e.Param.Value.Data())
	}
	sm := Sparsify(m, pr)
	if len(sm.Layers) != len(m.Layers) {
		t.Fatalf("layer count changed: %d vs %d", len(sm.Layers), len(m.Layers))
	}
	nSparse := 0
	for _, l := range sm.Layers {
		if sl, ok := l.(*SparseLinear); ok {
			sl.Exec = ExecSparse
			nSparse++
		}
	}
	if nSparse != 2 {
		t.Fatalf("sparsified %d layers, want 2", nSparse)
	}
	x := tensor.New(4, 16)
	tensor.FillNormal(x, 1, rng)
	yd, _ := m.Forward(x, false)
	ys, _ := sm.Forward(x, false)
	if d := tensor.MaxAbsDiff(yd, ys); d > 1e-4 {
		t.Fatalf("sparsified model diverges from masked-dense: %g", d)
	}
}

// TestSparseLinearCrossoverProbesAndFreezes drives auto-mode layers through
// the crossover rule: a 90%-sparse layer runs both products on the CSR
// kernels and never materializes the masked-dense copy, a 25%-sparse one
// runs its forward sparse and its input gradient dense — bitwise equal to
// the pinned paths, on every call — and the masked-dense scratch is
// dropped after enough sparse-path calls.
func TestSparseLinearCrossoverProbesAndFreezes(t *testing.T) {
	x := tensor.New(16, 32)
	tensor.FillNormal(x, 1, tensor.NewRNG(14))
	gy := tensor.New(16, 24)
	tensor.FillNormal(gy, 1, tensor.NewRNG(15))
	run := func(sparsity float64, exec ExecMode) (*SparseLinear, []float32, []float32) {
		_, sl, _ := sparsePair(32, 24, sparsity, 13)
		sl.Exec = exec
		var y, dx []float32
		for i := 0; i < 3; i++ {
			out, c := sl.Forward(nil, x, true)
			y = out.Data()
			dx = sl.Backward(nil, c, gy).Data()
		}
		return sl, y, dx
	}
	bitwise := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s differs from the pinned path at %d: %g vs %g", what, i, got[i], want[i])
			}
		}
	}

	sl, y, dx := run(0.9, ExecAuto)
	_, ys, dxs := run(0.9, ExecSparse)
	bitwise("sparsity 0.9 forward", y, ys)
	bitwise("sparsity 0.9 input gradient", dx, dxs)
	if sl.denseW != nil {
		t.Fatal("auto layer at sparsity 0.9 materialized the masked-dense copy")
	}

	sl, y, dx = run(0.25, ExecAuto)
	_, ys, _ = run(0.25, ExecSparse)
	_, _, dxd := run(0.25, ExecDense)
	bitwise("sparsity 0.25 forward", y, ys)
	bitwise("sparsity 0.25 input gradient", dx, dxd)
	if sl.denseW == nil {
		t.Fatal("auto layer at sparsity 0.25 never took the dense input-gradient path")
	}
	// Force the sparse path from here: the dense scratch must age out.
	sl.Exec = ExecSparse
	for i := 0; i < 2*denseDropAfter; i++ {
		_, c := sl.Forward(nil, x, true)
		sl.Backward(nil, c, gy)
	}
	if sl.denseW != nil {
		t.Error("masked-dense scratch not released after sparse-only steady state")
	}
}
