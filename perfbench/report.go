package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names one metric and its unit. Both lists must match
// BENCHMARK.json; perfbench_test checks that they do.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with tracing
// off by every workload. On the training workloads a unit of work is one
// training batch; on serve-samo-open it is one request.
var endToEnd = []metricDef{
	{"tokens_per_s", "tokens/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// nnTypes are the layer types of the benchmark GPT; forward and backward
// time is split by them.
var nnTypes = []string{"Embedding", "TransformerBlock", "LayerNorm", "Linear"}

// perLayer are the traced run's metrics. A workload that does not exercise
// a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"axonn.allocs_per_step", "count"},
		{"axonn.alloc_bytes_per_step", "B"},
		{"axonn.unaccounted_ms_per_step", "ms"},
		{"nn.forward_ms_per_step", "ms"},
		{"nn.backward_ms_per_step", "ms"},
	}
	for _, t := range nnTypes {
		defs = append(defs, metricDef{"nn.forward_ms_per_step." + t, "ms"})
	}
	for _, t := range nnTypes {
		defs = append(defs, metricDef{"nn.backward_ms_per_step." + t, "ms"})
	}
	defs = append(defs,
		metricDef{"nn.infer_ms_per_batch", "ms"},
		metricDef{"tensor.matmul_gflops.train", "GFLOP/s"},
		metricDef{"tensor.matmul_gflops.serve", "GFLOP/s"},
		metricDef{"core.capture_ms_per_step", "ms"},
		metricDef{"core.grad_elements_per_step", "count"},
		metricDef{"core.state_bytes", "B"},
		metricDef{"optim.step_ms_per_step", "ms"},
		metricDef{"prune.events", "count"},
		metricDef{"prune.event_ms", "ms"},
		metricDef{"comm.coll_ops_per_step", "count"},
		metricDef{"comm.coll_bytes_per_step", "B"},
		metricDef{"comm.p2p_msgs_per_step", "count"},
		metricDef{"comm.p2p_bytes_per_step", "B"},
		metricDef{"comm.exposed_ms_per_step", "ms"},
		metricDef{"tcp.allreduce_ms", "ms"},
		metricDef{"tcp.sendrecv_us", "us"},
		metricDef{"ckpt.save_ms", "ms"},
		metricDef{"ckpt.bytes", "B"},
		metricDef{"serve.queue_wait_ms.p50", "ms"},
		metricDef{"serve.queue_wait_ms.p99", "ms"},
		metricDef{"serve.mean_batch", "count"},
		metricDef{"serve.pad_ratio", "ratio"},
		metricDef{"serve.gen_lag_ms", "ms"},
		metricDef{"serve.max_rate_rps", "1/s"},
	)
	for _, q := range []string{"p50", "p99"} {
		for _, r := range serveRates {
			defs = append(defs, metricDef{"serve.latency_" + q + "_ms." + r.name, "ms"})
		}
	}
	return append(defs,
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and the operation counts behind
// "attempted" and "failed". An operation is a trained batch or a served
// request; a check failure (a loss or a response that differs from its
// reference) both fails the operation and makes the run incorrect.
type report struct {
	attempted  int
	failed     int
	mismatched int
	values     map[string]float64
	samples    map[string]int
	notes      []string
}

func newReport() *report {
	return &report{values: make(map[string]float64), samples: make(map[string]int)}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// countMismatches fails n operations whose output differed from its
// reference.
func (r *report) countMismatches(n int) {
	r.failed += n
	r.mismatched += n
}

// notef adds a detail line printed before the result.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, one line per metric with its sample count, and
// the result object as the last line: the per-layer metrics of a traced
// run, else the end-to-end ones. Per-layer metrics of layers the workload
// does not exercise read 0; a missing end-to-end metric is an error.
func (r *report) write(out io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	res := result{r.mismatched == 0, r.attempted, r.failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(out, "metric %-36s %16s %-8s samples=%d\n",
			d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit, r.samples[d.name])
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rounds is how many times an end-to-end run sets up and measures.
const rounds = 10

// runRounds runs round rounds times, each with its share of the measured
// seconds, and sets every end-to-end metric from the values the rounds
// recorded (peak_rss_mb is sampled here). A round's detail line records
// its values and the host's CPU ticks, steal included.
func (r *report) runRounds(seconds float64, round func(i int, per time.Duration, record func(string, float64)) error) error {
	sampler := startRSSSampler()
	defer sampler.close()
	values := make(map[string][]float64)
	per := time.Duration(seconds * float64(time.Second) / rounds)
	for i := 0; i < rounds; i++ {
		busy0, idle0, steal0 := cpuTicks()
		err := round(i, per, func(name string, v float64) { values[name] = append(values[name], v) })
		if err != nil {
			return err
		}
		values["peak_rss_mb"] = append(values["peak_rss_mb"], sampler.roundPeakMB())
		busy1, idle1, steal1 := cpuTicks()
		line := fmt.Sprintf("round %d", i)
		for _, d := range endToEnd {
			if v := values[d.name]; len(v) == i+1 {
				line += fmt.Sprintf(" %s=%.4g", d.name, v[i])
			}
		}
		r.notef("%s host_ticks busy=%d idle=%d steal=%d", line, busy1-busy0, idle1-idle0, steal1-steal0)
		// Start the next round from the same resident set: collect garbage
		// and return free memory to the OS.
		debug.FreeOSMemory()
		sampler.roundPeakMB()
	}
	for _, d := range endToEnd {
		v := values[d.name]
		if len(v) != rounds {
			return fmt.Errorf("%s recorded in %d of %d rounds", d.name, len(v), rounds)
		}
		sort.Float64s(v)
		r.set(d.name, quantile(v, roundQuantile(d.name)), len(v))
	}
	return nil
}

// roundQuantile picks the statistic over rounds. Other tenants of the host
// only ever slow a round down, so timings take the least disturbed
// quartile: the upper quartile of throughput, the lower quartile of latency
// and set-up time. Memory is not slowed down and takes the median.
func roundQuantile(name string) float64 {
	switch name {
	case "tokens_per_s":
		return 0.75
	case "peak_rss_mb":
		return 0.5
	default:
		return 0.25
	}
}

// rssSampler reads the resident set every few milliseconds. A round's peak
// is the highest reading since the round began; the process high-water
// mark would instead be the maximum over rounds, which varies more.
type rssSampler struct {
	peak atomic.Int64 // pages
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				p := residentPages()
				for old := s.peak.Load(); p > old && !s.peak.CompareAndSwap(old, p); old = s.peak.Load() {
				}
			}
		}
	}()
	return s
}

// roundPeakMB returns the peak since the last call in MiB and starts the
// next round's.
func (s *rssSampler) roundPeakMB() float64 {
	now := residentPages()
	p := max(s.peak.Swap(now), now)
	return float64(p) * float64(os.Getpagesize()) / (1 << 20)
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentPages reads the resident set from /proc/self/statm (0 if
// unreadable).
func residentPages() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	p, _ := strconv.ParseInt(f[1], 10, 64)
	return p
}

// cpuTicks returns the host's busy, idle and steal ticks from /proc/stat.
func cpuTicks() (busy, idle, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch i {
		case 3, 4:
			idle += n
		case 7:
			steal += n
		default:
			busy += n
		}
	}
	return
}
