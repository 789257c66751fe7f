// samo-serve runs the end-to-end serving path: train briefly, hand the
// checkpoint to a forward-only InferenceState (no gradients, no optimizer
// state), and serve concurrent single-sample requests through the dynamic
// micro-batching engine.
//
// Two modes:
//
//	samo-serve -mode smoke     # serve N concurrent requests, drain, and
//	                           # verify every response is bitwise-identical
//	                           # to the offline inference forward
//	samo-serve -mode loadtest  # drive the engine under concurrency and
//	                           # write p50/p99 latency + throughput JSON
//	                           # (BENCH_serving.json) to -out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	samo "github.com/sparse-dl/samo"
	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/data"
	"github.com/sparse-dl/samo/internal/serve"
	"github.com/sparse-dl/samo/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable body of the command: flags parse from args, output
// goes to out, and failures return instead of exiting the process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("samo-serve", flag.ContinueOnError)
	// Parse errors are returned (main prints them once, to stderr);
	// -h gets the usage on the success writer and a clean exit.
	fs.SetOutput(io.Discard)
	mode := fs.String("mode", "smoke", "smoke (verify served outputs against the offline forward) or loadtest (write a latency/throughput report)")
	modelKind := fs.String("model", "gpt", "model family: gpt or mlp")
	hidden := fs.Int("hidden", 32, "model width")
	layers := fs.Int("layers", 1, "transformer blocks (gpt)")
	useSAMO := fs.Bool("samo", false, "train with SAMO-compressed states (exercises compressed checkpoints)")
	sparsity := fs.Float64("sparsity", 0.9, "pruned fraction when -samo is set")
	trainIters := fs.Int("train-iters", 4, "training steps before the checkpoint handoff (0 = serve the fresh init)")
	requests := fs.Int("requests", 64, "total requests to serve")
	concurrency := fs.Int("concurrency", 8, "concurrent client goroutines")
	maxBatch := fs.Int("max-batch", 8, "samples per forward (padded to the next power of two)")
	queueDepth := fs.Int("queue", 0, "admission queue depth (0 = 4x max-batch)")
	window := fs.Duration("window", 200*time.Microsecond, "micro-batch gather window")
	pad := fs.String("pad", "fixed", "batch padding policy: fixed (constant geometry, traffic-independent bits) or pow2")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint handoff directory (empty = a temp dir)")
	outPath := fs.String("out", "", "loadtest report file (empty = stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}
	if *mode != "smoke" && *mode != "loadtest" {
		return fmt.Errorf("samo-serve: -mode %q: want smoke or loadtest", *mode)
	}

	// --- Build, train, checkpoint. ------------------------------------------
	const seq, vocab, mlpIn, mlpClasses = 12, 48, 24, 10
	gptCfg := samo.GPTConfig{Name: "serve", Layers: *layers, Hidden: *hidden,
		Heads: 4, Seq: seq, Vocab: vocab}
	build := func() *samo.Model {
		if *modelKind == "mlp" {
			return samo.NewMLP("serve", []int{mlpIn, *hidden, mlpClasses}, samo.NewRNG(1))
		}
		return samo.NewGPT(gptCfg, samo.NewRNG(1))
	}
	// Validate before anything is built: bad values would otherwise panic
	// in the layers or the pruner, or fail later with an unrelated error.
	switch *modelKind {
	case "gpt":
		if err := gptCfg.Validate(); err != nil {
			return fmt.Errorf("samo-serve: %w", err)
		}
	case "mlp":
		if *hidden < 1 {
			return fmt.Errorf("samo-serve: -hidden %d: want ≥ 1", *hidden)
		}
	default:
		return fmt.Errorf("samo-serve: -model %q: want gpt or mlp", *modelKind)
	}
	if *useSAMO && (*sparsity < 0 || *sparsity >= 1) {
		return fmt.Errorf("samo-serve: -sparsity %g outside [0,1)", *sparsity)
	}
	if *trainIters < 0 {
		return fmt.Errorf("samo-serve: -train-iters %d: want ≥ 0", *trainIters)
	}
	if *requests < 1 || *concurrency < 1 || *maxBatch < 1 {
		return fmt.Errorf("samo-serve: -requests %d, -concurrency %d and -max-batch %d must be ≥ 1",
			*requests, *concurrency, *maxBatch)
	}

	var pr *samo.PruneResult
	smode := samo.ModeDense
	if *useSAMO {
		pr = samo.PruneMagnitude(build(), *sparsity)
		smode = samo.ModeSAMO
	}
	newOpt := func() samo.Optimizer { return samo.NewAdamW(3e-3, 0.01) }
	state := samo.NewState(build(), newOpt(), smode, pr)
	trainer := samo.NewTrainer(state)

	corpus := data.SynthText("serve-corpus", vocab, 20000, 2)
	mlpRNG := samo.NewRNG(7)
	cursor := 0
	for i := 0; i < *trainIters; i++ {
		if *modelKind == "mlp" {
			x := samo.NewTensor(8, mlpIn)
			samo.FillNormal(x, 1, mlpRNG)
			targets := make([]int, 8)
			for j := range targets {
				targets[j] = (i + j) % mlpClasses
			}
			trainer.TrainStep(x, targets)
		} else {
			b, c := corpus.LMBatch(cursor, 4, seq)
			cursor = c
			trainer.TrainStep(b.Input, b.Targets)
		}
	}

	dir := *ckptDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "samo-serve-ckpt-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	tag := fmt.Sprintf("serve-%s-h%d-l%d-%v", *modelKind, *hidden, *layers, smode)
	mgr, err := ckpt.New(ckpt.Options{Dir: dir, Shards: 1, Tag: tag})
	if err != nil {
		return err
	}
	if err := mgr.Save(*trainIters, 0, state); err != nil {
		return err
	}

	// The serving state: a second, independently built model whose training
	// machinery never exists. Load verifies tag + fingerprint + CRC, then
	// reconstructs dense fp16 weights from the checkpoint's θ32.
	infState := core.NewInferenceState(build(), newOpt(), smode, pr)
	if err := mgr.Load(*trainIters, 0, infState); err != nil {
		return err
	}
	mem := infState.Memory()
	fmt.Fprintf(out, "serving %s: %d params, resident %.2f MiB (training state would be %.2f MiB)\n",
		tag, state.Model().NumParams(),
		float64(mem.Total())/(1<<20), float64(state.Memory().Total())/(1<<20))

	// --- Deterministic request samples. --------------------------------------
	nSamples := *requests
	if *mode == "loadtest" && nSamples > 64 {
		nSamples = 64 // loadtest cycles a fixed pool; smoke verifies each
	}
	samples := make([]*tensor.Tensor, nSamples)
	sCursor := 0
	sRNG := samo.NewRNG(11)
	for i := range samples {
		if *modelKind == "mlp" {
			x := samo.NewTensor(1, mlpIn)
			samo.FillNormal(x, 1, sRNG)
			samples[i] = x
		} else {
			b, c := corpus.LMBatch(sCursor, 1, seq)
			sCursor = c
			samples[i] = b.Input
		}
	}

	padPolicy := serve.PadFixed
	switch *pad {
	case "fixed":
	case "pow2":
		padPolicy = serve.PadPow2
	default:
		return fmt.Errorf("samo-serve: -pad %q: want fixed or pow2", *pad)
	}
	if *mode == "smoke" && padPolicy != serve.PadFixed {
		return fmt.Errorf("samo-serve: smoke verifies bitwise identity, which only PadFixed guarantees (use -pad fixed)")
	}
	engine := serve.New(infState, serve.Config{
		MaxBatch:    *maxBatch,
		QueueDepth:  *queueDepth,
		BatchWindow: *window,
		Pad:         padPolicy,
	})

	if *mode == "loadtest" {
		rep, err := serve.LoadTest(engine, tag, func(i int) *tensor.Tensor {
			return samples[i%len(samples)]
		}, *requests, *concurrency)
		if cerr := engine.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if *outPath == "" {
			_, err = out.Write(blob)
			return err
		}
		if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "loadtest: %d requests x%d concurrency: p50 %.3f ms, p99 %.3f ms, %.0f req/s -> %s\n",
			rep.Requests, rep.Concurrency, rep.P50Ms, rep.P99Ms, rep.ThroughputRPS, *outPath)
		return nil
	}

	// --- Smoke: serve concurrently, drain, verify bitwise. -------------------
	// Offline references come from the TRAINED state's inference forward at
	// the serving geometry: each sample replicated to the fixed batch
	// bucket, first sample's rows sliced out. A pass certifies the
	// checkpoint handoff and the batching engine at once — ckpt-loaded
	// weights match trained weights, and a sample's rows served among
	// arbitrary concurrent traffic match its offline forward bit for bit
	// (PadFixed keeps the geometry constant; row values are independent
	// across a batch, so WHO shares the batch cannot matter).
	bucket := 1
	for bucket < *maxBatch {
		bucket *= 2
	}
	refs := make([][]float32, len(samples))
	refArena := tensor.NewArena()
	for i, x := range samples {
		s0 := x.Dim(0)
		shape := append([]int{bucket * s0}, x.Shape()[1:]...)
		xr := tensor.New(shape...)
		for r := 0; r < bucket; r++ {
			copy(xr.Data()[r*x.Len():(r+1)*x.Len()], x.Data())
		}
		y := state.Model().Infer(refArena, xr)
		rps := y.Dim(0) / bucket
		rowLen := y.Len() / y.Dim(0)
		refs[i] = append([]float32(nil), y.Data()[:rps*rowLen]...)
		refArena.Reset()
	}

	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, *concurrency)
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				var y *tensor.Tensor
				for {
					var err error
					y, err = engine.Infer(samples[i])
					if err == nil {
						break
					}
					if err != serve.ErrOverloaded {
						errs[c] = err
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
				if len(y.Data()) != len(refs[i]) {
					errs[c] = fmt.Errorf("request %d: served %d values, offline %d", i, len(y.Data()), len(refs[i]))
					return
				}
				for j, v := range y.Data() {
					if math.Float32bits(v) != math.Float32bits(refs[i][j]) {
						errs[c] = fmt.Errorf("request %d: served[%d]=%x != offline %x (not bitwise-identical)",
							i, j, math.Float32bits(v), math.Float32bits(refs[i][j]))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := engine.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st := engine.Stats()
	fmt.Fprintf(out, "smoke ok: %d concurrent requests bitwise-identical to the offline forward (%d batches, mean batch %.2f, %d padded samples)\n",
		len(samples), st.Batches, st.MeanBatch(), st.PaddedSamples)
	return nil
}
