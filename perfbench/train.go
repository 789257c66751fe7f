package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/data"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// benchGPT is the model of every workload.
var benchGPT = nn.GPTConfig{Name: "bench-gpt", Layers: 2, Hidden: 64, Heads: 4, Seq: 16, Vocab: 64}

const (
	batchSamples = 16 // samples per global training batch: 256 tokens
	// bucketElems caps the gradient all-reduce buckets, so the ~110k
	// gradient elements of benchGPT travel in several buckets and the
	// overlapped reduce has something to overlap.
	bucketElems = 1 << 15
	// warmBatches lead every timed axonn.Train untimed: the ranks' arenas,
	// caches and collective buffers fill during them.
	warmBatches = 2
	// setupBatches is what one set-up trains; every GEMM autotuner bucket
	// of the step freezes within them.
	setupBatches = 10
	// modelLayers counts benchGPT's top-level layers: embedding, blocks,
	// final norm and head.
	modelLayers = 2 + 3
)

// trainWorkload is one training workload: an engine layout and what runs
// around it.
type trainWorkload struct {
	cfg axonn.Config
	// sparsity is the one-shot magnitude pruning the run starts from
	// (SAMO mode); finalSparsity, when above it, is the target of a
	// gradual schedule whose events all fall in the first half of the
	// timed batches.
	sparsity, finalSparsity float64
	// wire runs the layout as two axonn.NetConfig endpoints in this
	// process, joined by one loopback TCP connection.
	wire bool
	// ckptEvery writes a crash-consistent checkpoint every that many
	// batches (0: none).
	ckptEvery int
}

var hybridSAMOLocal = trainWorkload{
	cfg: axonn.Config{Ginter: 2, Gdata: 2, Microbatch: 2, Mode: core.SAMO,
		OverlapReduce: true, ReduceBucketElems: bucketElems},
	sparsity: 0.5, finalSparsity: 0.9,
}

var dpDenseTCP = trainWorkload{
	cfg: axonn.Config{Ginter: 1, Gdata: 2, Microbatch: 2, Mode: core.Dense,
		OverlapReduce: true, ReduceBucketElems: bucketElems},
	wire: true, ckptEvery: 16,
}

// perBatch is the microbatch count of one rank per batch.
func (w trainWorkload) perBatch() int { return batchSamples / w.cfg.Gdata / w.cfg.Microbatch }

// trainInputs are a run's seeded inputs: the model's initial weights and a
// token stream cut into consecutive batches.
type trainInputs struct {
	modelSeed uint64
	corpus    *data.Corpus
}

func newTrainInputs(seed uint64) trainInputs {
	return trainInputs{
		modelSeed: seed*0x9E3779B97F4A7C15 + 1,
		corpus:    data.SynthText("perfbench", benchGPT.Vocab, 1<<16, seed),
	}
}

func (in trainInputs) build() *nn.Model { return nn.BuildGPT(benchGPT, tensor.NewRNG(in.modelSeed)) }

// batches cuts n batches from the corpus, starting at batch index first.
func (in trainInputs) batches(first, n int) []axonn.Batch {
	out := make([]axonn.Batch, n)
	cursor := first * batchSamples * benchGPT.Seq
	for i := range out {
		out[i], cursor = in.corpus.LMBatch(cursor, batchSamples, benchGPT.Seq)
	}
	return out
}

func newOptimizer() optim.Optimizer { return optim.NewAdamW(3e-3, 0.01) }

// ticket is the one-shot magnitude pruning of a freshly built model.
func ticket(build func() *nn.Model, sparsity float64) *prune.Result {
	var layers []prune.Layer
	for _, e := range build().PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return prune.MagnitudePerLayer(layers, sparsity)
}

// schedule returns the gradual pruning schedule for a timed run of n
// batches after warmBatches, or nil.
func (w trainWorkload) schedule(n int) *prune.Schedule {
	if w.finalSparsity <= w.sparsity {
		return nil
	}
	return &prune.Schedule{Initial: w.sparsity, Final: w.finalSparsity,
		BeginStep: warmBatches, EndStep: warmBatches + n/2, Frequency: max(1, n/8)}
}

// trainOut is what one axonn.Train (one per endpoint) returned.
type trainOut struct {
	losses   []float64
	ranks    []rankTraffic
	restarts int
}

// rankTraffic is one rank's fabric counters at the end of a run.
type rankTraffic struct {
	collOps, collElems, p2pMsgs, p2pElems, exposedNanos int64
}

// collect reads every rank's counters from the fabrics of a finished run,
// summed over endpoints (a rank counts only on the endpoint hosting it).
func (o *trainOut) collect(fabrics []*comm.Fabric) {
	o.ranks = make([]rankTraffic, fabrics[0].Size())
	for _, f := range fabrics {
		for r := range o.ranks {
			st := f.Stats(r)
			t := &o.ranks[r]
			t.collOps += st.CollOps.Load()
			t.collElems += st.CollElements.Load()
			t.p2pMsgs += st.P2PMessages.Load()
			t.p2pElems += st.P2PElements.Load()
			t.exposedNanos += st.ExposedCollNanos.Load()
		}
	}
}

// train runs cfg over batches: over the wire on two loopback endpoints when
// wire is set, else on the in-process transport.
func (w trainWorkload) train(cfg axonn.Config, wire bool, build axonn.Builder, newOpt axonn.OptBuilder,
	pr *prune.Result, batches []axonn.Batch) (trainOut, error) {
	if w.ckptEvery > 0 && cfg.CheckpointEvery > 0 {
		dir, err := os.MkdirTemp("", "perfbench-ckpt-")
		if err != nil {
			return trainOut{}, err
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	if !wire {
		res := axonn.Train(cfg, build, newOpt, pr, batches)
		if res.Fabric != nil {
			defer res.Fabric.Close()
		}
		if res.Err != nil {
			return trainOut{}, res.Err
		}
		out := trainOut{losses: res.Losses, restarts: res.Restarts}
		out.collect([]*comm.Fabric{res.Fabric})
		return out, nil
	}
	addrs, err := freeLoopbackAddrs(2)
	if err != nil {
		return trainOut{}, err
	}
	cfg.CollectiveDeadline = 30 * time.Second
	results := make([]axonn.Result, len(addrs))
	var wg sync.WaitGroup
	for p := range addrs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := cfg
			c.Net = &axonn.NetConfig{Peers: addrs, Proc: p, DialTimeout: 20 * time.Second}
			results[p] = axonn.Train(c, build, newOpt, pr, batches)
		}(p)
	}
	wg.Wait()
	// Closing the fabrics closes the TCP connection.
	var out trainOut
	var fabrics []*comm.Fabric
	for _, res := range results {
		if res.Fabric != nil {
			defer res.Fabric.Close()
			fabrics = append(fabrics, res.Fabric)
		}
	}
	for p, res := range results {
		if res.Err != nil {
			return trainOut{}, fmt.Errorf("endpoint %d: %w", p, res.Err)
		}
		out.restarts += res.Restarts
	}
	// The data-group-0 last-stage rank records the losses; it lives on
	// endpoint 0.
	out.losses = results[0].Losses
	out.collect(fabrics)
	return out, nil
}

// freeLoopbackAddrs reserves n loopback ports by binding and releasing
// them.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// lossMismatches counts batches whose loss is not bitwise-equal to the
// reference, or not finite.
func lossMismatches(got, want []float64) int {
	n := 0
	for i := range got {
		if i >= len(want) || math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
			math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			n++
		}
	}
	return n
}

func nonFinite(losses []float64) int {
	n := 0
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			n++
		}
	}
	return n
}

// timedRun is one timed axonn.Train: warmBatches, n measured batches and
// one more whose start closes the window.
type timedRun struct {
	n      int
	out    trainOut
	starts []int64 // batch starts on a first-stage rank
}

func (t timedRun) tokensPerSecond() float64 {
	d := time.Duration(t.starts[warmBatches+t.n] - t.starts[warmBatches])
	return float64(t.n*batchSamples*benchGPT.Seq) / d.Seconds()
}

// stepMillis returns the sorted wall times of the measured batches.
func (t timedRun) stepMillis() []float64 {
	steps := make([]float64, t.n)
	for i := range steps {
		b := warmBatches + i
		steps[i] = ms(time.Duration(t.starts[b+1] - t.starts[b]))
	}
	sort.Float64s(steps)
	return steps
}

func (w trainWorkload) timed(in trainInputs, pr *prune.Result, n int, rec *recorder) (timedRun, error) {
	cfg := w.cfg
	cfg.PruneSchedule = w.schedule(n)
	cfg.CheckpointEvery = w.ckptEvery
	out, err := w.train(cfg, w.wire, rec.builder(in.build), rec.optimizer(newOptimizer), pr,
		in.batches(0, rec.batches))
	if err != nil {
		return timedRun{}, err
	}
	clock := rec.fullClock()
	if clock == nil {
		return timedRun{}, fmt.Errorf("no rank stamped all %d batches", rec.batches)
	}
	return timedRun{n: n, out: out, starts: clock.starts}, nil
}

// setup builds everything a timed run needs from scratch, as a fresh
// process would: empty autotuner table, pruning, fabric (and TCP
// connection), and a short training run until the autotuner has frozen.
// It returns the pruning and the median step time of its last batches.
func (w trainWorkload) setup(in trainInputs) (*prune.Result, time.Duration, error) {
	tensor.ResetTuneTable()
	var pr *prune.Result
	if w.cfg.Mode == core.SAMO {
		pr = ticket(in.build, w.sparsity)
	}
	rec := newRecorder(false, w.perBatch(), setupBatches, modelLayers)
	cfg := w.cfg
	cfg.CheckpointEvery = w.ckptEvery
	if _, err := w.train(cfg, w.wire, rec.builder(in.build), newOptimizer, pr, in.batches(0, setupBatches)); err != nil {
		return nil, 0, err
	}
	clock := rec.fullClock()
	if clock == nil {
		return nil, 0, fmt.Errorf("set-up: no rank stamped all %d batches", setupBatches)
	}
	var steps []float64
	for b := setupBatches - 4; b < setupBatches-1; b++ {
		steps = append(steps, float64(clock.starts[b+1]-clock.starts[b]))
	}
	return pr, time.Duration(median(steps)), nil
}

// batchesFor sizes a timed run to last about d at the given step time.
func batchesFor(d time.Duration, step time.Duration) int {
	return max(4, int(math.Ceil(float64(d)/float64(step))))
}

func runTraining(w trainWorkload, o options) (*report, error) {
	rep := newReport()
	in := newTrainInputs(o.seed)
	if o.trace {
		pr, step, err := w.setup(in)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return w.traced(rep, in, pr, step, o)
	}

	// Each round sets up from scratch, so the autotuner freezes afresh.
	err := rep.runRounds(o.seconds, func(i int, per time.Duration, record func(string, float64)) error {
		t0 := time.Now()
		pr, step, err := w.setup(in)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		record("setup_s", time.Since(t0).Seconds())

		n := batchesFor(per, step)
		rec := newRecorder(false, w.perBatch(), warmBatches+n+1, modelLayers)
		run, err := w.timed(in, pr, n, rec)
		if err != nil {
			return err
		}
		steps := run.stepMillis()
		record("tokens_per_s", run.tokensPerSecond())
		record("latency_p50_ms", quantile(steps, 0.5))
		record("latency_p90_ms", quantile(steps, 0.9))

		// Outside the timed window: replay a prefix of the batches on the
		// reference layout (in-process transport, overlap off); the engine
		// promises bitwise-equal losses. The prefix reaches past the
		// schedule's first shrinking event (the one at BeginStep prunes
		// nothing: it is at the starting sparsity).
		prefix := min(warmBatches+max(4, n/8)+2, rec.batches)
		ref := w.cfg
		ref.OverlapReduce = false
		ref.PruneSchedule = w.schedule(n)
		refOut, err := w.train(ref, false, in.build, newOptimizer, pr, in.batches(0, prefix))
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		bad := lossMismatches(run.out.losses[:prefix], refOut.losses) + nonFinite(run.out.losses[prefix:])
		rep.attempted += rec.batches
		rep.failed += run.out.restarts
		rep.countMismatches(bad)
		rep.notef("round %d batches=%d measured=%d restarts=%d reference_prefix=%d mismatched=%d",
			i, rec.batches, n, run.out.restarts, prefix, bad)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// traced is the per-layer run: the same timed batches run untraced, then
// traced; their losses must be bitwise-equal.
func (w trainWorkload) traced(rep *report, in trainInputs, pr *prune.Result, step time.Duration, o options) (*report, error) {
	n := batchesFor(time.Duration(o.seconds*float64(time.Second)/2), step)
	total := warmBatches + n + 1

	plain, err := w.timed(in, pr, n, newRecorder(false, w.perBatch(), total, modelLayers))
	if err != nil {
		return nil, err
	}

	rec := newRecorder(true, w.perBatch(), total, modelLayers)
	var owner atomic.Pointer[batchClock]
	var mem [2]runtime.MemStats
	rec.onBatch = func(c *batchClock, b int) {
		if b == warmBatches {
			owner.CompareAndSwap(nil, c)
		}
		if owner.Load() != c {
			return
		}
		switch b {
		case warmBatches:
			runtime.ReadMemStats(&mem[0])
		case warmBatches + n:
			runtime.ReadMemStats(&mem[1])
		}
	}
	run, err := w.timed(in, pr, n, rec)
	if err != nil {
		return nil, err
	}
	rep.attempted = total
	bad := lossMismatches(run.out.losses, plain.out.losses)
	rep.failed = run.out.restarts + plain.out.restarts
	rep.countMismatches(bad)
	rep.notef("check traced_vs_untraced batches=%d mismatched=%d", total, bad)

	rep.set("axonn.allocs_per_step", float64(mem[1].Mallocs-mem[0].Mallocs)/float64(n), n)
	rep.set("axonn.alloc_bytes_per_step", float64(mem[1].TotalAlloc-mem[0].TotalAlloc)/float64(n), n)
	untraced, tracedTPS := plain.tokensPerSecond(), run.tokensPerSecond()
	rep.set("trace.overhead_pct", 100*(untraced-tracedTPS)/untraced, n)
	rep.notef("trace tokens_per_s untraced=%.1f traced=%.1f", untraced, tracedTPS)
	if err := w.reconcile(rep, rec, layerTypes(in.build()), run); err != nil {
		return nil, err
	}
	w.commMetrics(rep, run)

	matmulProbes(rep)
	if w.cfg.Mode == core.SAMO {
		if err := w.pruneProbe(rep, in, pr, n); err != nil {
			return nil, err
		}
	} else {
		ms := core.NewModelState(in.build(), newOptimizer(), w.cfg.Mode, nil)
		rep.set("core.grad_elements_per_step", float64(ms.GradElements()), 1)
		rep.set("core.state_bytes", float64(ms.Memory().Total()), 1)
	}
	if w.wire {
		if err := tcpProbe(rep, bucketElems); err != nil {
			return nil, err
		}
	}
	if w.ckptEvery > 0 {
		if err := ckptProbe(rep, in, w.cfg.Mode); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// rankSpans is one rank's traced time over the measured window, in ns.
type rankSpans struct {
	stage                   int
	wall, capture, optim    int64
	forward, backward       map[string]int64
	forwardSum, backwardSum int64
}

// reconcile splits each rank's step wall into forward, backward, capture,
// optimizer, exposed collective and unaccounted time over the measured
// batches, prints one line per rank, and sets the nn, core, optim, axonn
// and trace metrics (summed over ranks, per step).
func (w trainWorkload) reconcile(rep *report, rec *recorder, types []string, run timedRun) error {
	var ranks []rankSpans
	dropped := 0
	for _, tr := range rec.traces {
		dropped += tr.dropped
		rs, ok := rankWindow(tr, types, w.perBatch(), run.n)
		if ok {
			ranks = append(ranks, rs)
		}
	}
	if dropped > 0 {
		return fmt.Errorf("trace buffers overflowed by %d spans", dropped)
	}
	if len(ranks) != w.cfg.GPUs() {
		return fmt.Errorf("traced %d ranks, want %d", len(ranks), w.cfg.GPUs())
	}
	// Stage s holds the ranks whose first layer is the s-th smallest.
	firsts := map[int]bool{}
	for _, r := range ranks {
		firsts[r.stage] = true
	}
	var order []int
	for f := range firsts {
		order = append(order, f)
	}
	sort.Ints(order)
	for i := range ranks {
		ranks[i].stage = sort.SearchInts(order, ranks[i].stage)
	}
	sort.SliceStable(ranks, func(i, j int) bool { return ranks[i].stage < ranks[j].stage })

	// Exposed collective time comes from the fabric counters, which cover
	// the whole run; spread it evenly over its batches.
	exposed := make([]float64, w.cfg.Ginter) // per rank of each stage, ns per batch
	for r, t := range run.out.ranks {
		exposed[r%w.cfg.Ginter] += float64(t.exposedNanos)
	}
	total := float64(len(run.out.losses))
	for s := range exposed {
		exposed[s] /= total * float64(w.cfg.Gdata)
	}

	n := float64(run.n)
	perStep := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	var fwd, bwd, capt, opt, wall, unacc float64
	fwdT, bwdT := map[string]float64{}, map[string]float64{}
	replica := make([]int, w.cfg.Ginter)
	for _, r := range ranks {
		exp := exposed[r.stage] / 1e6
		spans := perStep(r.forwardSum + r.backwardSum + r.capture + r.optim)
		u := perStep(r.wall) - spans - exp
		rep.notef("stage %d replica %d ms/step: forward %.3f + backward %.3f + capture %.3f + optim %.3f + exposed %.3f + unaccounted %.3f = wall %.3f",
			r.stage, replica[r.stage], perStep(r.forwardSum), perStep(r.backwardSum), perStep(r.capture), perStep(r.optim), exp, u, perStep(r.wall))
		replica[r.stage]++
		fwd += perStep(r.forwardSum)
		bwd += perStep(r.backwardSum)
		capt += perStep(r.capture)
		opt += perStep(r.optim)
		wall += perStep(r.wall)
		unacc += u
		for t, v := range r.forward {
			fwdT[t] += perStep(v)
		}
		for t, v := range r.backward {
			bwdT[t] += perStep(v)
		}
	}
	samples := run.n * len(ranks)
	rep.set("nn.forward_ms_per_step", fwd, samples)
	rep.set("nn.backward_ms_per_step", bwd, samples)
	for _, t := range nnTypes {
		rep.set("nn.forward_ms_per_step."+t, fwdT[t], samples)
		rep.set("nn.backward_ms_per_step."+t, bwdT[t], samples)
	}
	rep.set("core.capture_ms_per_step", capt, samples)
	rep.set("optim.step_ms_per_step", opt, samples)
	rep.set("axonn.unaccounted_ms_per_step", unacc, samples)
	rep.set("trace.coverage", (fwd+bwd+capt+opt)/wall, samples)
	return nil
}

// rankWindow sums one rank's spans inside the measured window: from the
// start of batch warmBatches to the start of batch warmBatches+n. A batch
// starts with the forward of the rank's first layer for its first
// microbatch. ok is false for a model that never trained (the engine's
// probe build).
func rankWindow(tr *rankTrace, types []string, perBatch, n int) (rankSpans, bool) {
	first := -1
	for _, s := range tr.spans {
		if s.kind == spanForward && (first < 0 || int(s.layer) < first) {
			first = int(s.layer)
		}
	}
	if first < 0 {
		return rankSpans{}, false
	}
	var starts []int64
	calls := 0
	for _, s := range tr.spans {
		if s.kind == spanForward && int(s.layer) == first {
			if calls%perBatch == 0 {
				starts = append(starts, s.start)
			}
			calls++
		}
	}
	if len(starts) <= warmBatches+n {
		return rankSpans{}, false
	}
	lo, hi := starts[warmBatches], starts[warmBatches+n]
	rs := rankSpans{stage: first, wall: hi - lo, forward: map[string]int64{}, backward: map[string]int64{}}
	for i, s := range tr.spans {
		if s.start < lo || s.end > hi {
			continue
		}
		d := s.end - s.start
		switch s.kind {
		case spanForward:
			rs.forward[types[s.layer]] += d
			rs.forwardSum += d
		case spanBackward:
			rs.backward[types[s.layer]] += d
			rs.backwardSum += d
			// Capture: the gap until the backward of the next lower layer,
			// where core captures (and compresses) this layer's gradients
			// and launches any ready all-reduce bucket.
			if i+1 < len(tr.spans) {
				next := tr.spans[i+1]
				if next.kind == spanBackward && next.layer == s.layer-1 && next.end <= hi {
					rs.capture += next.start - s.end
				}
			}
		case spanOptim:
			rs.optim += d
		}
	}
	return rs, true
}

// commMetrics sets the comm metrics from the fabric counters of the traced
// run, summed over ranks and per batch. Elements are counted as carried,
// 4 bytes each.
func (w trainWorkload) commMetrics(rep *report, run timedRun) {
	var collOps, collElems, p2pMsgs, p2pElems, exposed int64
	for _, t := range run.out.ranks {
		collOps += t.collOps
		collElems += t.collElems
		p2pMsgs += t.p2pMsgs
		p2pElems += t.p2pElems
		exposed += t.exposedNanos
	}
	total := len(run.out.losses)
	b := float64(total)
	rep.set("comm.coll_ops_per_step", float64(collOps)/b, total)
	rep.set("comm.coll_bytes_per_step", 4*float64(collElems)/b, total)
	rep.set("comm.p2p_msgs_per_step", float64(p2pMsgs)/b, total)
	rep.set("comm.p2p_bytes_per_step", 4*float64(p2pElems)/b, total)
	rep.set("comm.exposed_ms_per_step", float64(exposed)/b/1e6, total)
}
