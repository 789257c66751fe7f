package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Spans are recorded by the benchmark's own decorators around the calls
// into each layer; the program itself is not instrumented. Every timestamp
// is nanoseconds since epoch on the monotonic clock, so spans, batch clocks
// and request times compare directly.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	spanForward spanKind = iota
	spanBackward
	spanInfer
	spanOptim
)

type span struct {
	kind       spanKind
	layer      int16 // index in the full model; -1 for optimizer steps
	start, end int64
}

// rankTrace is one model instance's span buffer: one per engine rank, or
// the serving model. It is preallocated, so recording allocates nothing;
// spans past its capacity are counted, not stored. A rank's spans are all
// written by the rank's own goroutine and read after the run has joined.
type rankTrace struct {
	spans   []span
	dropped int
}

func newRankTrace(capacity int) *rankTrace {
	return &rankTrace{spans: make([]span, 0, capacity)}
}

func (t *rankTrace) add(k spanKind, layer int, start, end int64) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{k, int16(layer), start, end})
}

// batchClock stamps the start of every batch on one model: the forward of
// its first layer opens a batch once every perBatch microbatches. It is the
// only decorator that runs with tracing off.
type batchClock struct {
	perBatch int
	calls    int
	starts   []int64
	// onBatch, when set, runs at each batch start (the traced run reads
	// allocation counters at the edges of its timed window).
	onBatch func(batch int)
}

func (c *batchClock) tick() {
	if c.calls%c.perBatch == 0 && len(c.starts) < cap(c.starts) {
		c.starts = append(c.starts, now())
		if c.onBatch != nil {
			c.onBatch(len(c.starts) - 1)
		}
	}
	c.calls++
}

// timedLayer decorates one nn.Layer. It forwards nn.InferLayer through
// nn.InferForward, so the wrapped layer runs exactly the code it runs
// undecorated; with a nil trace it only drives the batch clock.
type timedLayer struct {
	nn.Layer
	index int
	trace *rankTrace  // nil: tracing off
	clock *batchClock // set on the model's first layer only
}

func (l *timedLayer) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if l.clock != nil && train {
		l.clock.tick()
	}
	if l.trace == nil {
		return l.Layer.Forward(a, x, train)
	}
	t0 := now()
	y, cache := l.Layer.Forward(a, x, train)
	l.trace.add(spanForward, l.index, t0, now())
	return y, cache
}

func (l *timedLayer) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	if l.trace == nil {
		return l.Layer.Backward(a, cache, gradOut)
	}
	t0 := now()
	g := l.Layer.Backward(a, cache, gradOut)
	l.trace.add(spanBackward, l.index, t0, now())
	return g
}

func (l *timedLayer) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if l.trace == nil {
		return nn.InferForward(l.Layer, a, x)
	}
	t0 := now()
	y := nn.InferForward(l.Layer, a, x)
	l.trace.add(spanInfer, l.index, t0, now())
	return y
}

// timedPatternLayer keeps a decorated nn.PatternLayer discoverable by
// core.ModelState, which finds gradually prunable layers by type assertion.
type timedPatternLayer struct {
	timedLayer
	pattern nn.PatternLayer
}

func (l *timedPatternLayer) PatternParam() *nn.Param   { return l.pattern.PatternParam() }
func (l *timedPatternLayer) PatternFullLen() int       { return l.pattern.PatternFullLen() }
func (l *timedPatternLayer) PatternIDs() []int32       { return l.pattern.PatternIDs() }
func (l *timedPatternLayer) ShrinkPattern(keep []bool) { l.pattern.ShrinkPattern(keep) }

// layerTypes names each layer of m by its Go type ("TransformerBlock").
func layerTypes(m *nn.Model) []string {
	types := make([]string, len(m.Layers))
	for i, l := range m.Layers {
		t := fmt.Sprintf("%T", l)
		types[i] = t[strings.LastIndexByte(t, '.')+1:]
	}
	return types
}

// decorate wraps every layer of m (only the first when trace is nil) and
// returns the first layer's batch clock.
func decorate(m *nn.Model, trace *rankTrace, perBatch, batches int) *batchClock {
	clock := &batchClock{perBatch: perBatch, starts: make([]int64, 0, batches)}
	for i, l := range m.Layers {
		if trace == nil && i > 0 {
			break
		}
		tl := timedLayer{Layer: l, index: i, trace: trace}
		if i == 0 {
			tl.clock = clock
		}
		if pl, ok := l.(nn.PatternLayer); ok {
			m.Layers[i] = &timedPatternLayer{timedLayer: tl, pattern: pl}
		} else {
			m.Layers[i] = &tl
		}
	}
	return clock
}

// timedOptimizer records each optim.Optimizer.Step into its rank's trace.
type timedOptimizer struct {
	optim.Optimizer
	trace *rankTrace
}

func (o *timedOptimizer) Step(key string, params, grads []float32) {
	t0 := now()
	o.Optimizer.Step(key, params, grads)
	o.trace.add(spanOptim, -1, t0, now())
}

// recorder instruments every model an axonn.Train builds. The engine
// builds each rank's model and then its optimizer on the rank's goroutine,
// so the recorder pairs an optimizer with the model built last on the same
// goroutine and both write one rank trace.
type recorder struct {
	traced   bool
	perBatch int // microbatches per batch on each rank
	batches  int
	capacity int // spans per rank trace

	mu     sync.Mutex
	clocks []*batchClock
	traces []*rankTrace
	byG    map[uint64]*rankTrace
	// onBatch is installed on every clock; see batchClock.onBatch.
	onBatch func(clock *batchClock, batch int)
}

func newRecorder(traced bool, perBatch, batches, layers int) *recorder {
	// Per batch and rank: a forward and a backward span per layer and
	// microbatch, and one optimizer span per parameter tensor (a few per
	// layer).
	return &recorder{
		traced: traced, perBatch: perBatch, batches: batches,
		capacity: batches * layers * (2*perBatch + 16),
		byG:      make(map[uint64]*rankTrace),
	}
}

func (r *recorder) builder(build func() *nn.Model) func() *nn.Model {
	return func() *nn.Model {
		m := build()
		var tr *rankTrace
		if r.traced {
			tr = newRankTrace(r.capacity)
		}
		clock := decorate(m, tr, r.perBatch, r.batches)
		if r.onBatch != nil {
			clock.onBatch = func(b int) { r.onBatch(clock, b) }
		}
		r.mu.Lock()
		r.clocks = append(r.clocks, clock)
		if tr != nil {
			r.traces = append(r.traces, tr)
			r.byG[goroutineID()] = tr
		}
		r.mu.Unlock()
		return m
	}
}

func (r *recorder) optimizer(newOpt func() optim.Optimizer) func() optim.Optimizer {
	if !r.traced {
		return newOpt
	}
	return func() optim.Optimizer {
		r.mu.Lock()
		tr := r.byG[goroutineID()]
		r.mu.Unlock()
		if tr == nil {
			// Not built next to a model: its time stays unaccounted.
			return newOpt()
		}
		return &timedOptimizer{Optimizer: newOpt(), trace: tr}
	}
}

// fullClock returns a clock that stamped every batch (a first-stage rank's),
// or nil.
func (r *recorder) fullClock() *batchClock {
	for _, c := range r.clocks {
		if len(c.starts) == r.batches {
			return c
		}
	}
	return nil
}

// goroutineID parses the calling goroutine's id from its stack header
// ("goroutine 17 [running]:"). Only model and optimizer construction call
// it, never a timed path.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
