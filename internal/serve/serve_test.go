package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// newInferenceState wraps a model in a forward-only state (dense mode, no
// pruning) — the serve engine's only dependency.
func newInferenceState(m *nn.Model) *core.InferenceState {
	return core.NewInferenceState(m, optim.NewAdam(0.01), core.Dense, nil)
}

// offlineRefs computes, for each sample, the offline inference forward at
// the engine's serving geometry: the sample replicated to the fixed
// power-of-two bucket, first sample's rows sliced out. Under PadFixed this
// is exactly what a served response must equal, bit for bit.
func offlineRefs(m *nn.Model, samples []*tensor.Tensor, maxBatch int) [][]float32 {
	bucket := 1
	for bucket < maxBatch {
		bucket *= 2
	}
	refs := make([][]float32, len(samples))
	a := tensor.NewArena()
	for i, x := range samples {
		s0 := x.Dim(0)
		shape := append([]int{bucket * s0}, x.Shape()[1:]...)
		xr := tensor.New(shape...)
		for r := 0; r < bucket; r++ {
			copy(xr.Data()[r*x.Len():(r+1)*x.Len()], x.Data())
		}
		y := m.Infer(a, xr)
		rps := y.Dim(0) / bucket
		rowLen := y.Len() / y.Dim(0)
		refs[i] = append([]float32(nil), y.Data()[:rps*rowLen]...)
		a.Reset()
	}
	return refs
}

// serveAll drives the engine with `concurrency` goroutines over all samples,
// retrying backpressure rejections, and returns each response's data.
func serveAll(t *testing.T, e *Engine, samples []*tensor.Tensor, concurrency int) [][]float32 {
	t.Helper()
	got := make([][]float32, len(samples))
	errs := make([]error, concurrency)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				for {
					y, err := e.Infer(samples[i])
					if err == nil {
						got[i] = y.Data()
						break
					}
					if err != ErrOverloaded {
						errs[c] = fmt.Errorf("request %d: %w", i, err)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func assertBitwise(t *testing.T, refs, got [][]float32) {
	t.Helper()
	for i := range refs {
		if len(got[i]) != len(refs[i]) {
			t.Fatalf("request %d: served %d values, offline %d", i, len(got[i]), len(refs[i]))
		}
		for j := range refs[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(refs[i][j]) {
				t.Fatalf("request %d value %d: served %x != offline %x",
					i, j, math.Float32bits(got[i][j]), math.Float32bits(refs[i][j]))
			}
		}
	}
}

// TestServeBitwiseMatchesOffline is the serving determinism golden: under
// the default PadFixed policy, responses served among arbitrary concurrent
// traffic are bitwise-identical to the offline inference forward of each
// sample at the serving geometry — on the MLP and GPT families.
func TestServeBitwiseMatchesOffline(t *testing.T) {
	rng := tensor.NewRNG(17)
	mlp := nn.BuildMLP("smlp", []int{12, 24, 5}, rng)
	mlpSamples := make([]*tensor.Tensor, 40)
	for i := range mlpSamples {
		x := tensor.New(1, 12)
		tensor.FillNormal(x, 1, rng)
		mlpSamples[i] = x
	}

	gpt := nn.BuildGPT(nn.GPTConfig{Name: "sgpt", Layers: 1, Hidden: 32,
		Heads: 4, Seq: 6, Vocab: 20}, rng)
	gptSamples := make([]*tensor.Tensor, 24)
	for i := range gptSamples {
		ids := make([]int, 6)
		for j := range ids {
			ids[j] = (i*5 + j*3) % 20
		}
		gptSamples[i] = nn.TokensToTensor(ids)
	}

	for _, tc := range []struct {
		name    string
		model   *nn.Model
		samples []*tensor.Tensor
	}{{"mlp", mlp, mlpSamples}, {"gpt", gpt, gptSamples}} {
		t.Run(tc.name, func(t *testing.T) {
			// Build the state FIRST: its constructor quantizes the model's
			// weights to the fp16 grid in place, and the offline reference
			// must run on the same grid the engine serves.
			st := newInferenceState(tc.model)
			refs := offlineRefs(tc.model, tc.samples, 4)
			e := New(st, Config{MaxBatch: 4, BatchWindow: 100 * time.Microsecond})
			got := serveAll(t, e, tc.samples, 6)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, refs, got)
			stats := e.Stats()
			if stats.Requests != int64(len(tc.samples)) {
				t.Fatalf("stats count %d requests, served %d", stats.Requests, len(tc.samples))
			}
			if stats.Batches < 1 || stats.Batches > int64(len(tc.samples)) {
				t.Fatalf("implausible batch count %d", stats.Batches)
			}
		})
	}
}

// TestServeSparsifiedBitwise extends the golden to sparse execution: a
// Sparsify'd model served through the engine matches its offline forward,
// for a sparse model (sparsity 0.9) and a mostly dense one (sparsity 0.25).
func TestServeSparsifiedBitwise(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sparsity float64
	}{{"sparse", 0.9}, {"dense", 0.25}} {
		t.Run(tc.name, func(t *testing.T) {

			rng := tensor.NewRNG(23)
			base := nn.BuildMLP("xmlp", []int{16, 32, 6}, rng)
			var layers []prune.Layer
			for _, e := range base.PruneLayers() {
				layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
			}
			m := nn.Sparsify(base, prune.MagnitudePerLayer(layers, tc.sparsity))
			samples := make([]*tensor.Tensor, 20)
			for i := range samples {
				x := tensor.New(1, 16)
				tensor.FillNormal(x, 1, rng)
				samples[i] = x
			}

			st := newInferenceState(m) // quantizes in place; refs must follow
			refs := offlineRefs(m, samples, 4)
			e := New(st, Config{MaxBatch: 4})
			got := serveAll(t, e, samples, 5)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, refs, got)
		})
	}
}

// TestServePadPow2 exercises the lighter padding policy: responses carry
// the right geometry and the padded-sample count stays below what PadFixed
// would produce. No bitwise claim — pow2 buckets legitimately vary bits.
func TestServePadPow2(t *testing.T) {
	rng := tensor.NewRNG(29)
	m := nn.BuildMLP("pmlp", []int{10, 16, 4}, rng)
	samples := make([]*tensor.Tensor, 15)
	for i := range samples {
		x := tensor.New(1, 10)
		tensor.FillNormal(x, 1, rng)
		samples[i] = x
	}
	e := New(newInferenceState(m), Config{MaxBatch: 8, Pad: PadPow2, BatchWindow: -1})
	got := serveAll(t, e, samples, 3)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for i, y := range got {
		if len(y) != 4 {
			t.Fatalf("request %d: %d values, want 4", i, len(y))
		}
	}
	st := e.Stats()
	// With BatchWindow<0 many batches ship as singletons: pow2 pads those
	// to 1, where PadFixed would pad every batch to 8.
	if fixed := st.Batches*8 - st.Requests; st.PaddedSamples >= fixed {
		t.Fatalf("PadPow2 padded %d samples, no better than PadFixed's %d", st.PaddedSamples, fixed)
	}
}

// gateLayer is an identity layer whose forward blocks until release is
// closed, signalling entered on its first call: appended to a model, it
// wedges the batching loop inside a batch for as long as a test needs.
type gateLayer struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gateLayer) Forward(a *tensor.Arena, x *tensor.Tensor, _ bool) (*tensor.Tensor, any) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	y := a.Get(x.Shape()...)
	copy(y.Data(), x.Data())
	return y, nil
}

func (g *gateLayer) Backward(*tensor.Arena, any, *tensor.Tensor) *tensor.Tensor {
	panic("gateLayer: forward-only")
}

func (g *gateLayer) Params() []*nn.Param { return nil }

// TestServeBackpressure pins the admission contract: with the batching loop
// wedged, a full queue rejects instantly with ErrOverloaded and counts the
// rejection — it never blocks the caller — and the admitted requests are
// served once the loop moves again.
func TestServeBackpressure(t *testing.T) {
	rng := tensor.NewRNG(31)
	m := nn.BuildMLP("bmlp", []int{8, 8, 3}, rng)
	gate := &gateLayer{entered: make(chan struct{}), release: make(chan struct{})}
	m.Layers = append(m.Layers, gate)
	const depth = 2
	e := New(newInferenceState(m), Config{MaxBatch: 1, QueueDepth: depth})
	defer e.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release() // runs before Close, so a failing test cannot hang it

	// Wedge the loop: its first batch blocks inside the gate layer.
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	infer := func() {
		defer wg.Done()
		_, err := e.Infer(tensor.New(1, 8))
		errs <- err
	}
	wg.Add(1)
	go infer()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("batching loop never started the first batch")
	}

	// With the loop wedged exactly depth submissions fit in the queue; every
	// other one must come back at once with ErrOverloaded.
	const n = 16
	for c := 0; c < n; c++ {
		wg.Add(1)
		go infer()
	}
	for i := 0; i < n-depth; i++ {
		select {
		case err := <-errs:
			if err != ErrOverloaded {
				t.Fatalf("wedged engine returned %v, want ErrOverloaded", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d rejections returned; a full queue blocked its caller", i, n-depth)
		}
	}
	if got := e.Stats().Rejected; got != n-depth {
		t.Fatalf("stats count %d rejections, callers saw %d", got, n-depth)
	}

	// Unwedged, the first request and the depth queued ones are all served.
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	if err := e.Close(); err != nil { // loop exited: its counters are final
		t.Fatal(err)
	}
	if st := e.Stats(); st.Requests != 1+depth || st.Rejected != n-depth {
		t.Fatalf("stats %+v, want %d requests and %d rejections", st, 1+depth, n-depth)
	}
}

// TestServeCloseDrains pins graceful shutdown: requests queued before Close
// are all answered, requests after Close get ErrClosed, and Close is
// idempotent.
func TestServeCloseDrains(t *testing.T) {
	rng := tensor.NewRNG(37)
	m := nn.BuildMLP("dmlp", []int{8, 8, 3}, rng)
	e := New(newInferenceState(m), Config{MaxBatch: 4, QueueDepth: 32, BatchWindow: time.Millisecond})

	const n = 12
	results := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := tensor.New(1, 8)
			tensor.FillNormal(x, 1, tensor.NewRNG(uint64(100+i)))
			_, results[i] = e.Infer(x)
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let the submissions reach the queue
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	served := 0
	for i, err := range results {
		switch err {
		case nil:
			served++
		case ErrClosed, ErrOverloaded:
			// Raced Close or a momentarily full queue — acceptable losses;
			// what matters is that nothing hangs and nothing else fails.
		default:
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if served == 0 {
		t.Fatal("Close drained zero requests")
	}
	if _, err := e.Infer(tensor.New(1, 8)); err != ErrClosed {
		t.Fatalf("post-Close Infer returned %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServeShapeContract pins the fixed-shape admission rule: the first
// request fixes the sample shape and later mismatches are rejected up
// front, as is a nil or empty sample.
func TestServeShapeContract(t *testing.T) {
	rng := tensor.NewRNG(41)
	m := nn.BuildMLP("cmlp", []int{8, 8, 3}, rng)
	e := New(newInferenceState(m), Config{MaxBatch: 2, BatchWindow: -1})
	defer e.Close()

	x := tensor.New(1, 8)
	tensor.FillNormal(x, 1, rng)
	if _, err := e.Infer(x); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Infer(tensor.New(1, 9)); err == nil {
		t.Fatal("mismatched sample shape admitted")
	}
	if _, err := e.Infer(tensor.New(2, 8)); err == nil {
		t.Fatal("mismatched batch dim admitted")
	}
	if _, err := e.Infer(nil); err == nil {
		t.Fatal("nil sample admitted")
	}
	// The matching shape still works after rejections.
	if _, err := e.Infer(x); err != nil {
		t.Fatal(err)
	}
}
