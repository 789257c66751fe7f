package sparse

import (
	"testing"

	"github.com/sparse-dl/samo/internal/fp16"
	"github.com/sparse-dl/samo/internal/tensor"
)

// TestCompressExpandZeroAlloc pins the perf contract on SAMO's two
// primitives: they run on every layer's gradient every microbatch, so they
// must not allocate in steady state (pooled parallel dispatch only).
func TestCompressExpandZeroAlloc(t *testing.T) {
	const n = 1 << 18
	mask := NewMask(n)
	rng := tensor.NewRNG(11)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			mask.Set(i)
		}
	}
	ix := NewIndex(mask)
	dense := make([]float32, n)
	comp := make([]float32, ix.NNZ())
	// Warm the job free list and the worker pool.
	ix.Compress(comp, dense)
	ix.Expand(dense, comp)

	if a := testing.AllocsPerRun(50, func() { ix.Compress(comp, dense) }); a != 0 {
		t.Fatalf("Compress allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { ix.Expand(dense, comp) }); a != 0 {
		t.Fatalf("Expand allocates %.1f per call, want 0", a)
	}

	// The fp16 twins sit on the same per-layer gradient path (∇θ16) and
	// carry the same contract.
	denseH := make([]fp16.Bits, n)
	compH := make([]fp16.Bits, ix.NNZ())
	ix.CompressHalf(compH, denseH)
	ix.ExpandHalf(denseH, compH)
	if a := testing.AllocsPerRun(50, func() { ix.CompressHalf(compH, denseH) }); a != 0 {
		t.Fatalf("CompressHalf allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { ix.ExpandHalf(denseH, compH) }); a != 0 {
		t.Fatalf("ExpandHalf allocates %.1f per call, want 0", a)
	}
}

// TestSparseKernelsZeroAlloc pins the sparse training kernels — SpMMInto,
// the transposed SpMMTInto, SDDMMInto, the cached-transpose Gather refresh
// and the DenseInto expansion behind the dense input gradient — at zero steady-state allocations: since PR 5 they sit on the
// pruned FC layers' per-microbatch hot path, under the same contract as the
// dense GEMM family (pooled jobs, caller buffers).
func TestSparseKernelsZeroAlloc(t *testing.T) {

	w, _ := randMaskedCSR(128, 96, 0.1, 5)
	wt, perm := w.TransposePerm()
	x := randDense(64, 96, 6)   // forward operand (batch, in)
	dy := randDense(64, 128, 7) // gradient operand (batch, out)
	xT := tensor.Transpose(x)   // (in, batch) for SpMM/SDDMM
	dyT := tensor.Transpose(dy) // (out, batch)
	y := tensor.New(64, 128)    // SpMMT output
	dx := tensor.New(64, 96)    // transposed SpMMT output
	yT := tensor.New(128, 64)   // SpMM output
	grad := make([]float32, w.NNZ())
	wd := tensor.New(128, 96)

	// Warm the job free lists and the worker pool.
	w.SpMMTInto(y, x)
	wt.SpMMTInto(dx, dy)
	w.SpMMInto(yT, xT)
	w.SDDMMInto(grad, dyT, xT, true)
	Gather(wt.Val, w.Val, perm)
	w.DenseInto(wd)

	if a := testing.AllocsPerRun(50, func() { w.SpMMTInto(y, x) }); a != 0 {
		t.Errorf("SpMMTInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { wt.SpMMTInto(dx, dy) }); a != 0 {
		t.Errorf("transposed SpMMTInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { w.SpMMInto(yT, xT) }); a != 0 {
		t.Errorf("SpMMInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { w.SDDMMInto(grad, dyT, xT, true) }); a != 0 {
		t.Errorf("SDDMMInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { Gather(wt.Val, w.Val, perm) }); a != 0 {
		t.Errorf("Gather allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { w.DenseInto(wd) }); a != 0 {
		t.Errorf("DenseInto allocates %.1f per call, want 0", a)
	}
}
