// samo-train trains a small GPT-style model on a synthetic corpus with the
// real hybrid-parallel engine (goroutine ranks), with or without SAMO.
//
// Usage:
//
//	samo-train -ginter 2 -gdata 2 -samo -iters 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	samo "github.com/sparse-dl/samo"
	"github.com/sparse-dl/samo/internal/data"
	"github.com/sparse-dl/samo/internal/nn"
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
	fs := flag.NewFlagSet("samo-train", flag.ContinueOnError)
	// Parse errors are returned (main prints them once, to stderr);
	// -h gets the usage on the success writer and a clean exit.
	fs.SetOutput(io.Discard)
	ginter := fs.Int("ginter", 2, "pipeline stages (inter-layer parallelism)")
	gdata := fs.Int("gdata", 2, "data-parallel groups")
	useSAMO := fs.Bool("samo", false, "enable SAMO-compressed model states")
	overlap := fs.Bool("overlap", false, "overlap bucketed gradient all-reduce with backward")
	sparsity := fs.Float64("sparsity", 0.9, "pruned fraction when -samo is set")
	pruneBegin := fs.Int("prune-begin", -1, "gradual pruning: first event step (-1 = one-shot pruning only)")
	pruneEnd := fs.Int("prune-end", 0, "gradual pruning: step the final sparsity is reached at")
	pruneEvery := fs.Int("prune-every", 1, "gradual pruning: steps between prune events")
	pruneFinal := fs.Float64("prune-final", 0, "gradual pruning: final pruned fraction")
	pruneGlobal := fs.Bool("prune-global", false, "gradual pruning: rank magnitudes globally instead of per layer")
	iters := fs.Int("iters", 100, "training iterations")
	hidden := fs.Int("hidden", 48, "model width")
	layers := fs.Int("layers", 2, "transformer blocks")
	ckptDir := fs.String("checkpoint-dir", "", "directory for crash-consistent checkpoints (empty = off)")
	ckptEvery := fs.Int("checkpoint-every", 10, "checkpoint period in iterations")
	ckptKeep := fs.Int("checkpoint-keep", 2, "complete checkpoints to retain")
	resume := fs.Bool("resume", false, "resume from the newest verified checkpoint in -checkpoint-dir")
	deadline := fs.Duration("deadline", 0, "collective deadline (failure backstop detector; 0 = off)")
	transport := fs.String("transport", "local", "fabric transport: local (in-process) or tcp (multi-process)")
	peers := fs.String("peers", "", "comma-separated listen addresses, one per process (tcp transport)")
	proc := fs.Int("proc", 0, "this process's index into -peers (tcp transport)")
	dialTimeout := fs.Duration("dial-timeout", 0, "tcp mesh build timeout, incl. waiting for restarted peers (0 = transport default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}

	cfg := samo.GPTConfig{Name: "cli", Layers: *layers, Hidden: *hidden,
		Heads: 4, Seq: 12, Vocab: 48}
	// Validate the model and layout before anything is built from them:
	// bad values would otherwise panic in the layers or the batcher.
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *ginter < 1 || *gdata < 1 || *iters < 0 {
		return fmt.Errorf("-ginter %d and -gdata %d must be ≥ 1, -iters %d ≥ 0", *ginter, *gdata, *iters)
	}
	build := func() *samo.Model { return samo.NewGPT(cfg, samo.NewRNG(1)) }

	var ticket *samo.PruneResult
	mode := samo.ModeDense
	if *useSAMO {
		// Validate before pruning: an out-of-range target would otherwise
		// panic inside the pruning package (its contract is validated input).
		if *sparsity < 0 || *sparsity >= 1 {
			return fmt.Errorf("-sparsity %g outside [0,1)", *sparsity)
		}
		ticket = samo.PruneMagnitude(build(), *sparsity)
		mode = samo.ModeSAMO
		fmt.Fprintf(out, "pruned %d of %d prunable parameters (%.0f%% sparsity)\n",
			ticket.TotalParams()-ticket.KeptParams(), ticket.TotalParams(),
			100*ticket.Sparsity())
	}

	corpus := data.SynthText("cli-corpus", cfg.Vocab, 20000, 2)
	var batches []samo.Batch
	cursor := 0
	batchSamples := 4 * *gdata
	for i := 0; i < *iters; i++ {
		b, c := corpus.LMBatch(cursor, batchSamples, cfg.Seq)
		cursor = c
		batches = append(batches, b)
	}

	pcfg := samo.ParallelConfig{Ginter: *ginter, Gdata: *gdata, Microbatch: 1, Mode: mode,
		OverlapReduce:      *overlap,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CheckpointKeep:     *ckptKeep,
		Resume:             *resume,
		CollectiveDeadline: *deadline,
	}
	if *pruneBegin >= 0 {
		if !*useSAMO {
			return errors.New("-prune-begin requires -samo (gradual pruning shrinks pruned model states)")
		}
		sched := samo.PruneSchedule{
			Initial:   *sparsity,
			Final:     *pruneFinal,
			BeginStep: *pruneBegin,
			EndStep:   *pruneEnd,
			Frequency: *pruneEvery,
			Global:    *pruneGlobal,
		}
		if err := sched.Validate(); err != nil {
			return err
		}
		pcfg.PruneSchedule = &sched
	}
	switch *transport {
	case "local":
		if *peers != "" {
			return errors.New("-peers requires -transport tcp")
		}
	case "tcp":
		if *peers == "" {
			return errors.New("-transport tcp requires -peers")
		}
		pcfg.Net = &samo.NetConfig{
			Peers:       strings.Split(*peers, ","),
			Proc:        *proc,
			DialTimeout: *dialTimeout,
		}
	default:
		return fmt.Errorf("unknown -transport %q (want local or tcp)", *transport)
	}
	if pcfg.Ginter > len(build().Layers) {
		return fmt.Errorf("ginter %d exceeds %d layers", pcfg.Ginter, len(build().Layers))
	}
	fmt.Fprintf(out, "training %s on %d virtual GPUs (Ginter=%d × Gdata=%d), mode=%v, transport=%s\n",
		cfg.Name, pcfg.GPUs(), pcfg.Ginter, pcfg.Gdata, mode, *transport)

	res := samo.Train(pcfg, build, func() samo.Optimizer { return samo.NewAdamW(3e-3, 0.01) },
		ticket, batches)
	for _, w := range res.Warnings {
		fmt.Fprintf(out, "warning: %s\n", w)
	}
	if res.Err != nil {
		return res.Err
	}
	if res.StartBatch > 0 {
		fmt.Fprintf(out, "resumed from checkpoint step %d\n", res.StartBatch)
	}
	// Losses are recorded by the data-group-0 last-stage rank; under the tcp
	// transport only the process hosting that rank has them to report.
	if res.Fabric.IsLocal(pcfg.Ginter - 1) {
		for i, l := range res.Losses {
			if i < res.StartBatch {
				continue // not trained in this process; no loss to report
			}
			if i%10 == 0 || i == len(res.Losses)-1 {
				fmt.Fprintf(out, "iter %4d  loss %.4f  ppl %8.2f\n", i, l, nn.Perplexity(l))
			}
		}
		fmt.Fprintf(out, "skipped steps (loss-scale overflow): %d\n", res.SkippedSteps)
	}
	fmt.Fprintf(out, "p2p elements moved: %d; collective elements: %d\n",
		res.Fabric.TotalP2PElements(), res.Fabric.TotalCollElements())
	// Exposed time is what collectives cost the critical path: full duration
	// for synchronous calls, only the un-hidden waiting tail for overlapped
	// ones — the number -overlap exists to shrink.
	fmt.Fprintf(out, "exposed collective time: %v (overlap=%v)\n",
		time.Duration(res.Fabric.TotalExposedCollNanos()), *overlap)
	return nil
}
