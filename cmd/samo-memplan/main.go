// samo-memplan prints the memory plan for the paper's model zoo: model-state
// bytes under dense mixed precision vs SAMO, and the Ginter each requires on
// Summit-class 16 GB GPUs — the mechanism by which memory savings become
// communication savings (§IV-B).
//
// Usage:
//
//	samo-memplan -sparsity 0.9 -gpus 512
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	samo "github.com/sparse-dl/samo"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/hw"
	"github.com/sparse-dl/samo/internal/simulate"
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
	// Persist any sparse-crossover decisions this process probed before it
	// exits, like the other cmds — the debounced background saver cannot
	// be relied on in a short-lived command (see samo.FlushXoverTable).
	// Today memplan's analytic pipeline runs no kernels, so this is a free
	// no-op; it keeps the exit contract uniform if a future planner does.
	defer func() { _ = samo.FlushXoverTable() }()
	fs := flag.NewFlagSet("samo-memplan", flag.ContinueOnError)
	// Parse errors are returned (main prints them once, to stderr);
	// -h gets the usage on the success writer and a clean exit.
	fs.SetOutput(io.Discard)
	sparsity := fs.Float64("sparsity", 0.9, "pruned fraction")
	gpus := fs.Int("gpus", 512, "GPU count to plan for")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}

	m := hw.Summit()
	fmt.Fprintf(out, "memory plan at sparsity %.2f on %s (%d GPUs, %.0f GB each)\n\n",
		*sparsity, m.Name, *gpus, float64(m.MemoryBytes)/(1<<30))
	fmt.Fprintf(out, "%-16s %12s %12s %10s %14s %14s\n",
		"model", "dense(GB)", "SAMO(GB)", "saved", "dense layout", "SAMO layout")

	for _, j := range simulate.StandardJobs() {
		dense := core.DefaultModelStateBytes(j.Phi)
		samoB := core.SAMOModelStateBytes(j.Phi, *sparsity)
		g := *gpus
		if g > j.MaxGPUs {
			g = j.MaxGPUs
		}
		if g < j.MinGPUs {
			g = j.MinGPUs
		}
		dp := simulate.Run(simulate.MethodAxoNN, j, m, g, *sparsity)
		sp := simulate.Run(simulate.MethodSAMO, j, m, g, *sparsity)
		layout := func(r simulate.Result) string {
			if !r.Feasible {
				return "OOM"
			}
			return fmt.Sprintf("Gi=%d Gd=%d", r.Plan.Ginter, r.Plan.Gdata)
		}
		fmt.Fprintf(out, "%-16s %12.2f %12.2f %9.0f%% %14s %14s\n",
			j.Name, core.GiB(dense), core.GiB(samoB),
			100*(1-float64(samoB)/float64(dense)),
			layout(dp), layout(sp))
	}
	fmt.Fprintf(out, "\nanalytical break-even sparsity: %.2f (below it SAMO costs memory)\n",
		core.BreakEvenSparsity)
	return nil
}
