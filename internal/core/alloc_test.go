package core

import (
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// TestTrainStepZeroAlloc pins the tentpole perf contract: after warmup, a
// full mixed-precision SAMO training step — forward, loss, scaled backward
// with layer-granular gradient capture, optimizer step, fp16 down-cast and
// expansion — performs zero heap allocations. Everything runs on the
// trainer's arena, the layer cache pools, and the kernel job free lists.
func TestTrainStepZeroAlloc(t *testing.T) {
	for _, mode := range []Mode{Dense, SAMO} {
		_, ms, _ := buildTestSetup(mode, 0.75, 7)
		tr := NewTrainer(ms)
		x, targets := makeBatch(16, 8, 4, 8)
		// Warm: arena free lists, cache pools, optimizer state, worker pool.
		for i := 0; i < 3; i++ {
			tr.TrainStep(x, targets)
		}
		if a := testing.AllocsPerRun(30, func() { tr.TrainStep(x, targets) }); a != 0 {
			t.Errorf("%v: TrainStep allocates %.1f per step, want 0", mode, a)
		}
	}
}

// stateFor prunes the model's weight matrices and wraps it in a ModelState.
func stateFor(m *nn.Model, mode Mode, sparsity float64) *ModelState {
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, sparsity)
	return NewModelState(m, optim.NewAdam(1e-3), mode, pr)
}

// TestCNNTrainStepZeroAlloc extends the zero-alloc contract to the CNN
// path: im2col lowering, conv forward/backward, batch norm, pooling and
// the residual shortcut must all run on pooled/arena state. PR 1 left
// closure dispatch on this path; this pins the closed gap.
func TestCNNTrainStepZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(21)
	m := nn.BuildVGG("allocvgg", []int{8, -1, 16, -1}, 3, 8, 4, rng)
	tr := NewTrainer(stateFor(m, SAMO, 0.75))
	x := tensor.New(4, 3, 8, 8)
	tensor.FillNormal(x, 1, rng)
	targets := []int{0, 1, 2, 3}
	for i := 0; i < 3; i++ {
		tr.TrainStep(x, targets)
	}
	if a := testing.AllocsPerRun(20, func() { tr.TrainStep(x, targets) }); a != 0 {
		t.Errorf("CNN TrainStep allocates %.1f per step, want 0", a)
	}

	// The residual (WideResNet) path adds shortcut convs and batch norm in
	// a different composition; pin it too.
	rng2 := tensor.NewRNG(22)
	mr := nn.BuildWideResNet("allocwrn", 1, 1, 3, 8, 4, rng2)
	trr := NewTrainer(stateFor(mr, SAMO, 0.75))
	for i := 0; i < 3; i++ {
		trr.TrainStep(x, targets)
	}
	if a := testing.AllocsPerRun(20, func() { trr.TrainStep(x, targets) }); a != 0 {
		t.Errorf("WideResNet TrainStep allocates %.1f per step, want 0", a)
	}
}

// TestConv2DForwardBackwardZeroAlloc pins the conv layer in isolation: a
// steady-state forward+backward pair — im2col, the GEMM triple, and the
// PARALLEL Col2Im gather in Backward — must run entirely on the arena and
// the pooled kernel jobs. Workers are pinned above one so the test
// exercises the pool-dispatch path of the parallel col2im, not the inline
// fallback.
func TestConv2DForwardBackwardZeroAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	rng := tensor.NewRNG(31)
	conv := nn.NewConv2d("alloc-conv", tensor.ConvSpec{
		InC: 8, OutC: 16, Kernel: 3, Stride: 1, Pad: 1, InH: 12, InW: 12}, rng)
	x := tensor.New(2, 8, 12, 12)
	tensor.FillNormal(x, 1, rng)
	arena := tensor.NewArena()
	step := func() {
		y, cache := conv.Forward(arena, x, true)
		conv.Backward(arena, cache, y) // y has the gradient's shape; values are irrelevant here
		arena.Reset()
	}
	for i := 0; i < 3; i++ {
		step() // warm arena free lists, cache pools, worker pool
	}
	if a := testing.AllocsPerRun(30, step); a != 0 {
		t.Errorf("Conv2d forward+backward allocates %.1f per step, want 0", a)
	}
}

// TestGPTTrainStepZeroAlloc extends the zero-alloc contract to the GPT
// path: embedding lookup, attention (whose per-head fan-out used closure
// dispatch before this PR), layer norm, GELU MLP and the LM head.
func TestGPTTrainStepZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(23)
	cfg := nn.GPTConfig{Name: "alloc-gpt", Layers: 2, Hidden: 16, Heads: 2,
		Seq: 8, Vocab: 32, BatchSize: 2}
	m := nn.BuildGPT(cfg, rng)
	tr := NewTrainer(stateFor(m, SAMO, 0.5))
	tokens := make([]int, 2*cfg.Seq)
	targets := make([]int, 2*cfg.Seq)
	drng := tensor.NewRNG(24)
	for i := range tokens {
		tokens[i] = drng.Intn(cfg.Vocab)
		targets[i] = drng.Intn(cfg.Vocab)
	}
	x := nn.TokensToTensor(tokens)
	for i := 0; i < 3; i++ {
		tr.TrainStep(x, targets)
	}
	if a := testing.AllocsPerRun(20, func() { tr.TrainStep(x, targets) }); a != 0 {
		t.Errorf("GPT TrainStep allocates %.1f per step, want 0", a)
	}
}
