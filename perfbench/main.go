// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks the workload's outputs and prints every
// metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 270, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 a traced run of the same workload reports the
// per-layer metrics instead. The lines before the result record the host
// and each metric's sample count.
//
// run.sh builds the command from source and gives every run its own empty
// autotuner and crossover tables. Run it from the repository root:
//
//	bash perfbench/run.sh --workload hybrid-samo-local --seed 1 --seconds 10 --trace 0
//
// README.md lists the workloads, the metrics and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/sparse-dl/samo/internal/tensor"
)

// options are one run's inputs.
type options struct {
	seed    uint64
	seconds float64 // measured time, split over the workload's phases
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"hybrid-samo-local": func(o options) (*report, error) { return runTraining(hybridSAMOLocal, o) },
	"dp-dense-tcp":      func(o options) (*report, error) { return runTraining(dpDenseTCP, o) },
	"serve-samo-open":   runServing,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive (got %g)", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace)
	}

	// Ranks are goroutines: never more OS threads or GEMM workers than CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())
	procs := runtime.GOMAXPROCS(0)
	tensor.SetWorkers(procs)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d tensor_workers=%d cpu=%q go=%s goarch=%s\n",
		runtime.NumCPU(), procs, procs, cpuModel(), runtime.Version(), runtime.GOARCH)
	fmt.Fprintf(out, "run workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)

	rep, err := runWorkload(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		return err
	}
	return rep.write(out, *trace == 1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the processor name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
