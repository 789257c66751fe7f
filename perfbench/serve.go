package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/serve"
	"github.com/sparse-dl/samo/internal/tensor"
)

const (
	serveMaxBatch   = 8
	serveSparsity   = 0.9 // hybrid-samo-local's final sparsity
	serveTrainSteps = 10
	servePool       = 32 // distinct request samples
	// serveQueueDepth admits 16 full batches, about 150ms of work: the
	// rates stay below capacity, so only a stall of the host could fill it.
	serveQueueDepth = 16 * serveMaxBatch
	// saturationClients keep every batch full in the closed-loop phase
	// (twice MaxBatch, within the admission queue).
	saturationClients = 2 * serveMaxBatch
	// latencyLimit is the p99 a rate must meet to count towards
	// serve.max_rate_rps: about four forwards of a full batch on a 2-vCPU
	// Xeon, where the closed loop sustains about 900 requests/s.
	latencyLimit = 40 * time.Millisecond
	// maxGenLag is how late the generator may run at p99 before a rate is
	// marked invalid: its arrivals no longer follow the schedule. Timers
	// wake about 1ms late on a 2-vCPU Xeon, and later when the engine's
	// forward holds both CPUs.
	maxGenLag = 5 * time.Millisecond
)

// serveRates are the open-loop Poisson arrival rates. low is near idle
// (mean batch about 1, so PadFixed computes 8 rows per real one); high is
// a third of the closed loop's capacity on a 2-vCPU Xeon, which still
// holds when other tenants of the host halve it. The end-to-end latency is
// mid's. share is the part of the measured time each rate gets.
var serveRates = []struct {
	name  string
	rps   float64
	share float64
}{
	{"low", 20, 0.1},
	{"mid", 150, 0.5},
	{"high", 300, 0.2},
}

// saturationShare is the part of the measured time the closed loop gets.
const saturationShare = 0.2

// servingSetup is a trained, checkpointed, loaded and warmed-up engine
// with the request pool and each request's offline reference output.
type servingSetup struct {
	engine *serve.Engine
	state  *core.InferenceState
	pool   []*tensor.Tensor
	refs   [][]float32
}

// setupServing trains benchGPT briefly with SAMO, hands the checkpoint to a
// core.InferenceState and starts a serve.Engine over it. trace, when set,
// records the served model's layers.
func setupServing(in trainInputs, trace *rankTrace) (*servingSetup, error) {
	tensor.ResetTuneTable()
	pr := ticket(in.build, serveSparsity)
	state := core.NewModelState(in.build(), newOptimizer(), core.SAMO, pr)
	trainer := core.NewTrainer(state)
	for _, b := range in.batches(0, serveTrainSteps) {
		trainer.TrainStep(b.Input, b.Targets)
	}
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	mgr, err := ckpt.New(ckpt.Options{Dir: dir, Shards: 1, Tag: "perfbench-serve"})
	if err != nil {
		return nil, err
	}
	if err := mgr.Save(serveTrainSteps, 0, state); err != nil {
		return nil, err
	}
	model := in.build()
	if trace != nil {
		decorate(model, trace, 1, 0)
	}
	inf := core.NewInferenceState(model, newOptimizer(), core.SAMO, pr)
	if err := mgr.Load(serveTrainSteps, 0, inf); err != nil {
		return nil, err
	}

	s := &servingSetup{state: inf, pool: make([]*tensor.Tensor, servePool), refs: make([][]float32, servePool)}
	// Requests come from the stream after the training batches. The
	// reference for each is the offline forward of the sample replicated
	// to the engine's fixed batch, the geometry PadFixed serves it at.
	cursor := serveTrainSteps * batchSamples * benchGPT.Seq
	offline := core.NewInferencer(inf)
	for i := range s.pool {
		batch, next := in.corpus.LMBatch(cursor, 1, benchGPT.Seq)
		cursor = next
		x := batch.Input
		s.pool[i] = x
		xr := tensor.New(serveMaxBatch*x.Dim(0), x.Dim(1))
		for r := 0; r < serveMaxBatch; r++ {
			copy(xr.Data()[r*x.Len():], x.Data())
		}
		y := offline.Forward(xr)
		rows := y.Len() / serveMaxBatch
		s.refs[i] = append([]float32(nil), y.Data()[:rows]...)
	}
	s.engine = serve.New(inf, serve.Config{MaxBatch: serveMaxBatch, Pad: serve.PadFixed, QueueDepth: serveQueueDepth})
	// Warm up until the serving shape's autotuner buckets have frozen.
	if _, bad, _, err := s.closedLoop(saturationClients, 0, 8); err != nil || bad > 0 {
		s.engine.Close()
		return nil, fmt.Errorf("serving warm-up: %d mismatched, %v", bad, err)
	}
	if trace != nil {
		trace.spans = trace.spans[:0]
	}
	return s, nil
}

// check compares a response with its sample's reference, bit for bit.
func check(y *tensor.Tensor, ref []float32) bool {
	if y == nil || y.Len() != len(ref) {
		return false
	}
	for i, v := range y.Data() {
		if math.Float32bits(v) != math.Float32bits(ref[i]) {
			return false
		}
	}
	return true
}

// closedLoop runs clients that each send their next request when the last
// one returns, for d or, when d is 0, for perClient requests each. It
// returns the requests answered, how many of those mismatched, and the
// time until the last response.
func (s *servingSetup) closedLoop(clients int, d time.Duration, perClient int) (int, int, time.Duration, error) {
	var mu sync.Mutex
	var answered, mismatched int
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ok, bad := 0, 0
			for i := 0; d > 0 && time.Now().Before(deadline) || d == 0 && i < perClient; i++ {
				k := (c*7919 + i) % len(s.pool)
				y, err := s.engine.Infer(s.pool[k])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				ok++
				if !check(y, s.refs[k]) {
					bad++
				}
			}
			mu.Lock()
			answered += ok
			mismatched += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return answered, mismatched, time.Since(start), firstErr
}

// rateRun is one open-loop rate's requests, times in ns since epoch.
type rateRun struct {
	due, sent, done []int64
	status          []requestStatus
}

type requestStatus uint8

const (
	answered requestStatus = iota
	refused                // serve.ErrOverloaded; never retried
	errored
	mismatched
)

// openLoop sends Poisson arrivals at rps for d from one generator
// goroutine. Each request runs on its own goroutine, so a slow response
// never delays the next send; latency counts from the scheduled send time.
func (s *servingSetup) openLoop(rps float64, d time.Duration, rng *tensor.RNG) rateRun {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(-math.Log(1-rng.Float64()) / rps * float64(time.Second))
		if t >= d {
			break
		}
		due = append(due, t)
	}
	n := len(due)
	run := rateRun{due: make([]int64, n), sent: make([]int64, n), done: make([]int64, n),
		status: make([]requestStatus, n)}
	samples := make([]int, n)
	for i := range samples {
		samples[i] = int(rng.Float64() * float64(len(s.pool)))
	}
	var wg sync.WaitGroup
	start := now()
	for i := 0; i < n; i++ {
		run.due[i] = start + int64(due[i])
		if wait := time.Duration(run.due[i] - now()); wait > 0 {
			time.Sleep(wait)
		}
		run.sent[i] = now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y, err := s.engine.Infer(s.pool[samples[i]])
			run.done[i] = now()
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				run.status[i] = refused
			case err != nil:
				run.status[i] = errored
			case !check(y, s.refs[samples[i]]):
				run.status[i] = mismatched
			}
		}(i)
	}
	wg.Wait()
	return run
}

// latencies returns the sorted latencies of answered requests in ms.
func (r rateRun) latencies() []float64 {
	var l []float64
	for i, st := range r.status {
		if st == answered {
			l = append(l, float64(r.done[i]-r.due[i])/1e6)
		}
	}
	sort.Float64s(l)
	return l
}

// lagP99 is the generator's p99 lateness in ms.
func (r rateRun) lagP99() float64 {
	lag := make([]float64, len(r.sent))
	for i := range lag {
		lag[i] = float64(r.sent[i]-r.due[i]) / 1e6
	}
	sort.Float64s(lag)
	return quantile(lag, 0.99)
}

// backlogGrew reports whether the last quarter of requests waited more than
// twice as long as the first quarter: the engine fell behind the rate.
func (r rateRun) backlogGrew() bool {
	q := len(r.due) / 4
	if q < 10 {
		return false
	}
	lat := func(lo, hi int) float64 {
		var l []float64
		for i := lo; i < hi; i++ {
			l = append(l, float64(r.done[i]-r.due[i]))
		}
		return median(l)
	}
	return lat(len(r.due)-q, len(r.due)) > 2*lat(0, q)
}

func runServing(o options) (*report, error) {
	rep := newReport()
	in := newTrainInputs(o.seed)
	measured := time.Duration(o.seconds * float64(time.Second))
	rng := tensor.NewRNG(o.seed ^ 0x5EED)
	if o.trace {
		return servingTraced(rep, in, measured, rng)
	}

	// Each round sets up a fresh engine, so the autotuner freezes afresh.
	err := rep.runRounds(o.seconds, func(i int, per time.Duration, record func(string, float64)) error {
		t0 := time.Now()
		s, err := setupServing(in, nil)
		if err != nil {
			return err
		}
		record("setup_s", time.Since(t0).Seconds())
		n, bad, elapsed, err := s.closedLoop(saturationClients, time.Duration(saturationShare*float64(per)), 0)
		if err != nil {
			s.engine.Close()
			return fmt.Errorf("closed loop: %w", err)
		}
		rep.attempted += n
		rep.countMismatches(bad)
		record("tokens_per_s", float64(n*benchGPT.Seq)/elapsed.Seconds())
		rep.notef("round %d closed_loop clients=%d answered=%d mismatched=%d", i, saturationClients, n, bad)
		runs := s.openLoops(rep, per, rng)
		mid := runs[1].latencies()
		record("latency_p50_ms", quantile(mid, 0.5))
		record("latency_p90_ms", quantile(mid, 0.9))
		return s.engine.Close()
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// openLoops runs every rate in turn, counts its requests and failures, and
// prints one line per rate.
func (s *servingSetup) openLoops(rep *report, measured time.Duration, rng *tensor.RNG) []rateRun {
	var runs []rateRun
	for _, r := range serveRates {
		run := s.openLoop(r.rps, time.Duration(r.share*float64(measured)), rng)
		counts := map[requestStatus]int{}
		for _, st := range run.status {
			counts[st]++
		}
		rep.attempted += len(run.status)
		rep.failed += counts[refused] + counts[errored]
		rep.countMismatches(counts[mismatched])
		lat := run.latencies()
		rep.notef("serve rate=%s rps=%g requests=%d refused=%d errored=%d mismatched=%d p50_ms=%.3f p99_ms=%.3f gen_lag_p99_ms=%.3f valid=%t backlog_grew=%t",
			r.name, r.rps, len(run.status), counts[refused], counts[errored], counts[mismatched],
			quantile(lat, 0.5), quantile(lat, 0.99), run.lagP99(), run.lagP99() <= ms(maxGenLag), run.backlogGrew())
		runs = append(runs, run)
	}
	return runs
}

// servingTraced is the per-layer run: the closed loop untraced and traced
// for the tracing overhead, then every rate traced.
func servingTraced(rep *report, in trainInputs, measured time.Duration, rng *tensor.RNG) (*report, error) {
	satTime := time.Duration(saturationShare * float64(measured))
	plain, err := setupServing(in, nil)
	if err != nil {
		return nil, err
	}
	nPlain, bad, tPlain, err := plain.closedLoop(saturationClients, satTime, 0)
	plain.engine.Close()
	if err != nil {
		return nil, err
	}
	rep.attempted += nPlain
	rep.countMismatches(bad)

	trace := newRankTrace(1 << 20)
	s, err := setupServing(in, trace)
	if err != nil {
		return nil, err
	}
	defer s.engine.Close()
	nTraced, bad, tTraced, err := s.closedLoop(saturationClients, satTime, 0)
	if err != nil {
		return nil, err
	}
	rep.attempted += nTraced
	rep.countMismatches(bad)
	plainRate, tracedRate := float64(nPlain)/tPlain.Seconds(), float64(nTraced)/tTraced.Seconds()
	rep.set("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate, nPlain+nTraced)
	rep.notef("trace closed_loop answered untraced=%d traced=%d", nPlain, nTraced)

	before := s.engine.Stats()
	trace.spans = trace.spans[:0]
	runs := s.openLoops(rep, measured, rng)
	after := s.engine.Stats()
	if trace.dropped > 0 {
		return nil, fmt.Errorf("serving trace overflowed by %d spans", trace.dropped)
	}

	// One batch is one forward: the spans from the first layer's to the
	// last layer's.
	type fwd struct{ start, end, busy int64 }
	var batches []fwd
	for _, sp := range trace.spans {
		if sp.layer == 0 {
			batches = append(batches, fwd{start: sp.start})
		}
		if len(batches) == 0 {
			continue
		}
		b := &batches[len(batches)-1]
		b.end = sp.end
		b.busy += sp.end - sp.start
	}
	var busy, wall int64
	for _, b := range batches {
		busy += b.busy
		wall += b.end - b.start
	}
	rep.set("nn.infer_ms_per_batch", float64(busy)/float64(len(batches))/1e6, len(batches))
	rep.set("trace.coverage", float64(busy)/float64(wall), len(batches))

	// Queue wait: a request's latency less the forward of the batch that
	// carried it, the last batch to end before its response.
	var waits []float64
	for _, run := range runs {
		for i, st := range run.status {
			if st != answered {
				continue
			}
			k := sort.Search(len(batches), func(j int) bool { return batches[j].end > run.done[i] }) - 1
			if k < 0 {
				continue
			}
			waits = append(waits, float64(run.done[i]-run.due[i]-(batches[k].end-batches[k].start))/1e6)
		}
	}
	sort.Float64s(waits)
	rep.set("serve.queue_wait_ms.p50", quantile(waits, 0.5), len(waits))
	rep.set("serve.queue_wait_ms.p99", quantile(waits, 0.99), len(waits))

	reqs := after.Requests - before.Requests
	nb := after.Batches - before.Batches
	padded := after.PaddedSamples - before.PaddedSamples
	rep.set("serve.mean_batch", float64(reqs)/float64(nb), int(nb))
	rep.set("serve.pad_ratio", float64(padded)/float64(reqs+padded), int(nb))

	var lag, maxRate float64
	for i, r := range serveRates {
		lat := runs[i].latencies()
		rep.set("serve.latency_p50_ms."+r.name, quantile(lat, 0.5), len(lat))
		rep.set("serve.latency_p99_ms."+r.name, quantile(lat, 0.99), len(lat))
		l := runs[i].lagP99()
		lag = math.Max(lag, l)
		if l <= ms(maxGenLag) && !runs[i].backlogGrew() && len(lat) == len(runs[i].status) &&
			quantile(lat, 0.99) <= ms(latencyLimit) {
			maxRate = r.rps
		}
	}
	rep.set("serve.gen_lag_ms", lag, len(serveRates))
	rep.set("serve.max_rate_rps", maxRate, len(serveRates))
	rep.set("core.state_bytes", float64(s.state.Memory().Total()), 1)
	matmulProbes(rep)
	return rep, nil
}
