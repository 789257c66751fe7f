package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// buildSparseExecSetup prunes an MLP and replaces its Linears with
// first-class SparseLinear layers, wrapped in a SAMO-mode ModelState — the
// sparse-execution training stack end to end.
func buildSparseExecSetup(sparsity float64, seed uint64) (*nn.Model, *ModelState) {
	rng := tensor.NewRNG(seed)
	m := nn.BuildMLP("smlp", []int{16, 32, 8}, rng)
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, sparsity)
	sm := nn.Sparsify(m, pr)
	return sm, NewModelState(sm, optim.NewAdam(0.01), SAMO, pr)
}

// TestSparseExecTrainStepZeroAlloc pins the sparse execution path's perf
// contract: a full pruned-model TrainStep over SparseLinear layers — CSR
// forward, SDDMM weight gradient, transposed-CSR input gradient, rank-1
// weight-vector capture and optimizer step — runs at zero steady-state
// allocations, on both input-gradient paths: the CSR kernel at sparsity 0.9
// and, at 0.25, the dense GEMM over the weight expanded into arena scratch.
func TestSparseExecTrainStepZeroAlloc(t *testing.T) {
	for _, sparsity := range []float64{0.9, 0.25} {
		_, ms := buildSparseExecSetup(sparsity, 17)
		tr := NewTrainer(ms)
		x, targets := makeBatch(16, 16, 8, 18)
		for i := 0; i < 3; i++ {
			tr.TrainStep(x, targets)
		}
		if a := testing.AllocsPerRun(30, func() { tr.TrainStep(x, targets) }); a != 0 {
			t.Errorf("sparsity %g: sparse TrainStep allocates %.1f per step, want 0", sparsity, a)
		}
	}
}

// TestSparseLinearForwardBackwardZeroAlloc pins the layer in isolation: a
// steady-state forward+backward pair over the arena — including the cached
// transpose's value refresh at sparsity 0.9 and the weight's expansion into
// arena scratch for the dense input gradient at 0.25 — allocates nothing.
// Workers are pinned above one so the pooled parallel dispatch (not the
// inline fallback) is what is pinned.
func TestSparseLinearForwardBackwardZeroAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	for _, sparsity := range []float64{0.9, 0.25} {
		rng := tensor.NewRNG(19)
		dense := nn.NewLinear("fc", 64, 48, rng)
		pr := prune.MagnitudePerLayer(
			[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, sparsity)
		sl := nn.NewSparseLinear("fc", dense.W.Value, pr.Index("fc.weight"))
		x := tensor.New(32, 64)
		tensor.FillNormal(x, 1, rng)
		arena := tensor.NewArena()
		step := func() {
			y, cache := sl.Forward(arena, x, true)
			sl.Backward(arena, cache, y) // y has the gradient's shape
			arena.Reset()
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if a := testing.AllocsPerRun(30, step); a != 0 {
			t.Errorf("sparsity %g: SparseLinear forward+backward allocates %.1f per step, want 0", sparsity, a)
		}
	}
}

// TestSparseExecTrainStepDeterminism pins the acceptance contract on the
// whole pruned-model training step: training is bitwise-identical at every worker count — every sparse kernel accumulates
// in a fixed per-element order, so pool resizing can never perturb results.
func TestSparseExecTrainStepDeterminism(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	var ref []*tensor.Tensor
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		tensor.SetWorkers(workers)
		sm, ms := buildSparseExecSetup(0.9, 23)
		tr := NewTrainer(ms)
		for step := 0; step < 4; step++ {
			x, targets := makeBatch(12, 16, 8, uint64(300+step))
			tr.TrainStep(x, targets)
		}
		var params []*tensor.Tensor
		for _, p := range sm.Params() {
			params = append(params, p.Value)
		}
		if ref == nil {
			ref = params
			continue
		}
		for pi, p := range params {
			a, b := ref[pi].Data(), p.Data()
			for i := range a {
				if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
					t.Fatalf("workers=%d: param %d differs from 1-worker run at %d (%g vs %g)",
						workers, pi, i, a[i], b[i])
				}
			}
		}
	}
}

// TestSparseExecAutoReproducible pins run-to-run reproducibility of the
// layer's execution paths: the sparse/dense crossover is a fixed rule of
// each layer's density, so two identical trainings of a Sparsify'd MLP in
// one process produce the same float64 loss bits at every step. It runs at
// 50% sparsity, where the rule keeps every product on the CSR kernels, and
// at 25%, where it computes input gradients on the dense GEMM; in both,
// every layer's forward and input gradient equal those of the kernel the
// rule picks, called directly.
func TestSparseExecAutoReproducible(t *testing.T) {
	const batch, in, hidden, classes, steps = 64, 256, 256, 16, 4
	build := func(sparsity float64) (*nn.Model, *prune.Result) {
		m := nn.BuildMLP("rmlp", []int{in, hidden, hidden, classes}, tensor.NewRNG(41))
		var layers []prune.Layer
		for _, e := range m.PruneLayers() {
			layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
		}
		pr := prune.MagnitudePerLayer(layers, sparsity)
		return nn.Sparsify(m, pr), pr
	}
	train := func(sparsity float64) []uint64 {
		m, pr := build(sparsity)
		tr := NewTrainer(NewModelState(m, optim.NewAdam(0.01), SAMO, pr))
		var bits []uint64
		for step := 0; step < steps; step++ {
			x, targets := makeBatch(batch, in, classes, uint64(500+step))
			loss, _ := tr.TrainStep(x, targets)
			bits = append(bits, math.Float64bits(loss))
		}
		return bits
	}
	sameLoss := func(what string, a, b []uint64) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: loss bits differ at step %d: %016x vs %016x", what, i, a[i], b[i])
			}
		}
	}
	for _, sparsity := range []float64{0.5, 0.25} {
		first := train(sparsity)
		sameLoss(fmt.Sprintf("sparsity %.2f, second run", sparsity), first, train(sparsity))

		m, _ := build(sparsity)
		for li, l := range m.Layers {
			al, ok := l.(*nn.SparseLinear)
			if !ok {
				continue
			}
			dense := sparse.Xover(al.NNZ(), al.PatternFullLen())
			if dense != (sparsity == 0.25) {
				t.Fatalf("sparsity %.2f layer %d: the rule runs the input gradient dense = %v", sparsity, li, dense)
			}
			x, _ := makeBatch(batch, al.W.Cols, classes, uint64(600+li))
			gy, _ := makeBatch(batch, al.W.Rows, classes, uint64(700+li))
			ya, c := al.Forward(nil, x, true)
			dxa := al.Backward(nil, c, gy)
			yf := tensor.New(batch, al.W.Rows)
			al.W.SpMMTInto(yf, x)
			tensor.AddBias(yf, al.B.Value)
			dxb := tensor.New(batch, al.W.Cols)
			if dense {
				tensor.MatMulInto(dxb, gy, al.W.Dense(), false)
			} else {
				al.Wt.SpMMTInto(dxb, gy)
			}
			for what, pair := range map[string][2]*tensor.Tensor{"forward": {ya, yf}, "input gradient": {dxa, dxb}} {
				for i, v := range pair[0].Data() {
					if math.Float32bits(v) != math.Float32bits(pair[1].Data()[i]) {
						t.Fatalf("sparsity %.2f layer %d: %s differs from the path the rule picks at %d",
							sparsity, li, what, i)
					}
				}
			}
		}
	}
}

// TestSparseExecMatchesMaskedDenseTraining checks the sparse execution
// path's training math against the masked-dense reference the repo already
// trusts: the same pruned MLP trained through SparseLinear layers and
// through masked-dense Linear layers converges to the same parameters
// within fp16-roundoff tolerance (the two paths sum in different orders, so
// bitwise equality is not expected — unlike across worker counts).
func TestSparseExecMatchesMaskedDenseTraining(t *testing.T) {
	// Masked-dense reference: pruned Linears in Dense mode enforce the mask.
	_, msD, _ := buildTestSetup(Dense, 0.9, 29)
	rng := tensor.NewRNG(29)
	m2 := nn.BuildMLP("mlp", []int{8, 16, 4}, rng)
	var layers []prune.Layer
	for _, e := range m2.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, 0.9)
	sm := nn.Sparsify(m2, pr)
	msS := NewModelState(sm, optim.NewAdam(0.01), SAMO, pr)

	trD, trS := NewTrainer(msD), NewTrainer(msS)
	var lastD, lastS float64
	for step := 0; step < 8; step++ {
		x, targets := makeBatch(6, 8, 4, uint64(400+step))
		lastD, _ = trD.TrainStep(x, targets)
		lastS, _ = trS.TrainStep(x.Clone(), targets)
	}
	if math.Abs(lastD-lastS) > 1e-3*(1+math.Abs(lastD)) {
		t.Fatalf("sparse-exec loss %g diverged from masked-dense %g", lastS, lastD)
	}
	// Compare the sparse weight vectors against the masked-dense weights
	// compressed onto the same indices.
	for _, l := range sm.Layers {
		sl, ok := l.(*nn.SparseLinear)
		if !ok {
			continue
		}
		name := sl.Wv.Name
		var denseVal []float32
		for _, p := range msD.Model().Params() {
			if p.Name == name {
				denseVal = p.Value.Data()
			}
		}
		if denseVal == nil {
			t.Fatalf("no masked-dense twin for %s", name)
		}
		ix := pr.Index(name)
		comp := make([]float32, ix.NNZ())
		ix.Compress(comp, denseVal)
		// Scatter the sparse values back through the (in,out) order.
		got := make([]float32, ix.NNZ())
		deq := sl.DenseEquivalent()
		ix.Compress(got, deq.Data())
		for i := range comp {
			if d := math.Abs(float64(comp[i] - got[i])); d > 2e-2 {
				t.Fatalf("%s[%d]: sparse-exec %g vs masked-dense %g", name, i, got[i], comp[i])
			}
		}
	}
}

// TestSparseExecMemoryLedger checks that the ledger sees the sparse layer
// honestly: θ16 itself shrinks to the surviving coordinates (the paper
// keeps θ16 dense only because it computes dense; under sparse execution it
// compresses too) and the CSR structure is accounted as index bytes.
func TestSparseExecMemoryLedger(t *testing.T) {
	sm, ms := buildSparseExecSetup(0.9, 31)
	b := ms.Memory()
	var nnz, biases int64
	var meta int64
	for _, l := range sm.Layers {
		if sl, ok := l.(*nn.SparseLinear); ok {
			nnz += int64(sl.NNZ())
			biases += int64(sl.B.Value.Len())
			meta += sl.Wv.MetaBytes
		}
	}
	if want := BytesTheta16 * (nnz + biases); b.Theta16 != want {
		t.Errorf("Theta16 = %d, want %d (compressed θ16 + dense biases)", b.Theta16, want)
	}
	if b.Index != meta {
		t.Errorf("Index = %d, want %d (CSR patterns + refresh perm)", b.Index, meta)
	}
}
