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

// TestSparseLinearMatchesMaskedDense pins both input-gradient paths of the
// layer — the CSR kernel (sparsity 0.8) and the dense GEMM over the
// expanded weight (sparsity 0.25, more than half the weights kept) —
// against the masked-dense nn.Linear reference: same outputs, same input
// gradients, weight gradients equal to the dense gradient restricted to
// the pattern (and NO entries beyond it), same bias gradients. Run through
// an arena, as the trainer drives it.
func TestSparseLinearMatchesMaskedDense(t *testing.T) {
	for _, sparsity := range []float64{0.8, 0.25} {
		t.Run(fmt.Sprintf("sparsity=%g", sparsity), func(t *testing.T) {
			dense, sl, ix := sparsePair(12, 9, sparsity, 1)
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

// TestSparseLinearDenseCopyNeverStale pins the dense input-gradient path
// against stale weights: a backward of a layer keeping more than half its
// weights, run after an optimizer-style write through the Wv alias, must
// expand the CURRENT weights — bitwise equal to the GEMM over W.Dense().
func TestSparseLinearDenseCopyNeverStale(t *testing.T) {
	_, sl, _ := sparsePair(10, 8, 0.25, 21)
	if !sparse.Xover(sl.NNZ(), sl.PatternFullLen()) {
		t.Fatal("the rule keeps this layer's input gradient sparse; the test needs the dense path")
	}
	x := tensor.New(4, 10)
	tensor.FillNormal(x, 1, tensor.NewRNG(22))
	gy := tensor.New(4, 8)
	tensor.FillNormal(gy, 1, tensor.NewRNG(23))
	arena := tensor.NewArena()

	_, c := sl.Forward(arena, x, true)
	sl.Backward(arena, c, gy)
	arena.Reset()
	// Optimizer step: weights change through the alias.
	for i, v := range sl.Wv.Value.Data() {
		sl.Wv.Value.Data()[i] = v + 1
	}
	_, c = sl.Forward(arena, x, true)
	dx := sl.Backward(arena, c, gy)
	want := tensor.New(4, 10)
	tensor.MatMulInto(want, gy, sl.W.Dense(), false)
	for i, v := range want.Data() {
		if math.Float32bits(dx.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("dense backward used stale weights at %d: %g vs %g", i, dx.Data()[i], v)
		}
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
		if _, ok := l.(*SparseLinear); ok {
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

// TestSparseLinearPathsMatchKernels pins each product of the layer to the
// kernel the crossover rule names, bitwise, over repeated arena-driven
// steps: the forward is W.SpMMTInto plus the bias at every density; the
// input gradient is tensor.MatMulInto over W.Dense() for a layer keeping
// more than half its weights (sparsity 0.25) and Wt.SpMMTInto otherwise
// (sparsity 0.9).
func TestSparseLinearPathsMatchKernels(t *testing.T) {
	x := tensor.New(16, 32)
	tensor.FillNormal(x, 1, tensor.NewRNG(14))
	gy := tensor.New(16, 24)
	tensor.FillNormal(gy, 1, tensor.NewRNG(15))
	bitwise := func(what string, got, want *tensor.Tensor) {
		t.Helper()
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("%s differs from its kernel at %d: %g vs %g", what, i, got.Data()[i], v)
			}
		}
	}
	for _, tc := range []struct {
		sparsity float64
		dense    bool
	}{{0.9, false}, {0.25, true}} {
		_, sl, _ := sparsePair(32, 24, tc.sparsity, 13)
		if got := sparse.Xover(sl.NNZ(), sl.PatternFullLen()); got != tc.dense {
			t.Fatalf("sparsity %g: Xover = %v, want %v", tc.sparsity, got, tc.dense)
		}
		wantY := tensor.New(16, 24)
		sl.W.SpMMTInto(wantY, x)
		tensor.AddBias(wantY, sl.B.Value)
		wantDx := tensor.New(16, 32)
		if tc.dense {
			tensor.MatMulInto(wantDx, gy, sl.W.Dense(), false)
		} else {
			sl.Wt.SpMMTInto(wantDx, gy)
		}
		arena := tensor.NewArena()
		for i := 0; i < 3; i++ {
			y, c := sl.Forward(arena, x, true)
			bitwise(fmt.Sprintf("sparsity %g forward", tc.sparsity), y, wantY)
			dx := sl.Backward(arena, c, gy)
			bitwise(fmt.Sprintf("sparsity %g input gradient", tc.sparsity), dx, wantDx)
			arena.Reset()
		}
	}
}
