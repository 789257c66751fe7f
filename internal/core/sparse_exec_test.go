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
// first-class SparseLinear layers pinned to the given execution path,
// wrapped in a SAMO-mode ModelState — the sparse-execution training stack
// end to end.
func buildSparseExecSetup(exec nn.ExecMode, sparsity float64, seed uint64) (*nn.Model, *ModelState) {
	rng := tensor.NewRNG(seed)
	m := nn.BuildMLP("smlp", []int{16, 32, 8}, rng)
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, sparsity)
	sm := nn.Sparsify(m, pr)
	for _, l := range sm.Layers {
		if sl, ok := l.(*nn.SparseLinear); ok {
			sl.Exec = exec
		}
	}
	return sm, NewModelState(sm, optim.NewAdam(0.01), SAMO, pr)
}

// TestSparseExecTrainStepZeroAlloc pins the sparse execution path's perf
// contract: a full pruned-model TrainStep over SparseLinear layers — CSR
// forward, SDDMM weight gradient, transposed-CSR input gradient, rank-1
// weight-vector capture and optimizer step — runs at zero steady-state
// allocations, on both execution paths (the dense fallback materializes its
// masked-dense scratch once, then stays allocation-free).
func TestSparseExecTrainStepZeroAlloc(t *testing.T) {
	for _, exec := range []nn.ExecMode{nn.ExecSparse, nn.ExecDense} {
		_, ms := buildSparseExecSetup(exec, 0.9, 17)
		tr := NewTrainer(ms)
		x, targets := makeBatch(16, 16, 8, 18)
		for i := 0; i < 3; i++ {
			tr.TrainStep(x, targets)
		}
		if a := testing.AllocsPerRun(30, func() { tr.TrainStep(x, targets) }); a != 0 {
			t.Errorf("exec=%d: sparse TrainStep allocates %.1f per step, want 0", exec, a)
		}
	}
}

// TestSparseLinearForwardBackwardZeroAlloc pins the layer in isolation: a
// steady-state forward+backward pair over the arena — including the cached
// transpose's value refresh and, on the dense path, the masked-dense
// re-materialization — allocates nothing. Workers are pinned above one so
// the pooled parallel dispatch (not the inline fallback) is what is pinned.
func TestSparseLinearForwardBackwardZeroAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	for _, exec := range []nn.ExecMode{nn.ExecSparse, nn.ExecDense} {
		rng := tensor.NewRNG(19)
		dense := nn.NewLinear("fc", 64, 48, rng)
		pr := prune.MagnitudePerLayer(
			[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, 0.9)
		sl := nn.NewSparseLinear("fc", dense.W.Value, pr.Index("fc.weight"))
		sl.Exec = exec
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
			t.Errorf("exec=%d: SparseLinear forward+backward allocates %.1f per step, want 0", exec, a)
		}
	}
}

// TestSparseExecTrainStepDeterminism pins the acceptance contract on the
// whole pruned-model training step: with the execution path pinned,
// training is
// bitwise-identical at every worker count — every sparse kernel accumulates
// in a fixed per-element order, so pool resizing can never perturb results.
func TestSparseExecTrainStepDeterminism(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	var ref []*tensor.Tensor
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		tensor.SetWorkers(workers)
		sm, ms := buildSparseExecSetup(nn.ExecSparse, 0.9, 23)
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
// default execution mode: the sparse/dense crossover is a fixed rule of
// each layer's density, so two identical ExecAuto trainings of a
// Sparsify'd MLP in one process produce the same float64 loss bits at
// every step. It runs at 50% sparsity, where the rule keeps every product
// on the CSR kernels (so the run equals the ExecSparse run), and at 25%,
// where it computes input gradients on the dense GEMM; in both, every
// layer's forward and input gradient equal those of the layer pinned to
// the path the rule picks.
func TestSparseExecAutoReproducible(t *testing.T) {
	const batch, in, hidden, classes, steps = 64, 256, 256, 16, 4
	build := func(sparsity float64, exec nn.ExecMode) (*nn.Model, *prune.Result) {
		m := nn.BuildMLP("rmlp", []int{in, hidden, hidden, classes}, tensor.NewRNG(41))
		var layers []prune.Layer
		for _, e := range m.PruneLayers() {
			layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
		}
		pr := prune.MagnitudePerLayer(layers, sparsity)
		sm := nn.Sparsify(m, pr)
		for _, l := range sm.Layers {
			if sl, ok := l.(*nn.SparseLinear); ok {
				sl.Exec = exec
			}
		}
		return sm, pr
	}
	train := func(sparsity float64, exec nn.ExecMode) []uint64 {
		m, pr := build(sparsity, exec)
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
		first := train(sparsity, nn.ExecAuto)
		sameLoss(fmt.Sprintf("sparsity %.2f, second ExecAuto run", sparsity), first, train(sparsity, nn.ExecAuto))
		if sparsity == 0.5 {
			sameLoss("sparsity 0.50, ExecSparse run", first, train(sparsity, nn.ExecSparse))
		}

		auto, _ := build(sparsity, nn.ExecAuto)
		sp, _ := build(sparsity, nn.ExecSparse)
		de, _ := build(sparsity, nn.ExecDense)
		pinned := map[sparse.XoverChoice]*nn.Model{sparse.XoverSparse: sp, sparse.XoverDense: de}
		for li, l := range auto.Layers {
			al, ok := l.(*nn.SparseLinear)
			if !ok {
				continue
			}
			n, full := al.NNZ(), al.PatternFullLen()
			fwd := pinned[sparse.Xover(sparse.XoverOpForward, n, full)].Layers[li].(*nn.SparseLinear)
			bwd := pinned[sparse.Xover(sparse.XoverOpBackward, n, full)].Layers[li].(*nn.SparseLinear)
			if sparsity == 0.25 && bwd.Exec != nn.ExecDense {
				t.Fatalf("layer %d: the rule keeps the input gradient sparse at sparsity 0.25", li)
			}
			x, _ := makeBatch(batch, al.W.Cols, classes, uint64(600+li))
			gy, _ := makeBatch(batch, al.W.Rows, classes, uint64(700+li))
			ya, c := al.Forward(nil, x, true)
			dxa := al.Backward(nil, c, gy)
			yf, c := fwd.Forward(nil, x, true)
			fwd.Backward(nil, c, gy)
			_, c = bwd.Forward(nil, x, true)
			dxb := bwd.Backward(nil, c, gy)
			for what, pair := range map[string][2]*tensor.Tensor{"forward": {ya, yf}, "input gradient": {dxa, dxb}} {
				for i, v := range pair[0].Data() {
					if math.Float32bits(v) != math.Float32bits(pair[1].Data()[i]) {
						t.Fatalf("sparsity %.2f layer %d: ExecAuto %s differs from the path the rule picks at %d",
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
	for _, l := range sm.Layers {
		if sl, ok := l.(*nn.SparseLinear); ok {
			sl.Exec = nn.ExecSparse
		}
	}
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
	sm, ms := buildSparseExecSetup(nn.ExecSparse, 0.9, 31)
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
