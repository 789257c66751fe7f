// Package serve runs forward-only models behind a dynamic micro-batching
// engine: concurrent callers submit single samples, a batching loop gathers
// them into padded power-of-two batches (so serving traffic issues a
// handful of GEMM shapes instead of one per distinct batch size), and a
// bounded admission queue turns overload into immediate backpressure
// instead of unbounded latency.
//
// The engine's determinism contract is batch-composition independence: a
// sample's output bits depend only on the sample, never on what else
// shared its batch or on the traffic level. Every dense kernel computes
// each output row from that row's inputs alone, bitwise-identically at
// every worker count — but NOT identically across different batch heights:
// the GEMM dispatch picks its kernel by shape (the saxpy kernel below
// m=4, the blocked micro-kernel above), and the two accumulate k in
// different orders, so the same row through m=1 and m=8 products can
// differ in final bits. The default
// PadFixed policy therefore pads every batch to one fixed height
// (ceilPow2(MaxBatch)): with the geometry constant, row-value independence
// is all that is needed, and a sample served among strangers matches the
// same sample replicated into a batch by itself, bit for bit. PadPow2
// trades that invariance for less padding compute at light load. (A sparse
// layer's sparse/dense execution path is the other path-dependent choice;
// it is a fixed function of the layer's density, sparse.Xover, so a served
// model runs the same paths as its training run and as every other
// process.)
package serve

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/tensor"
)

var (
	// ErrOverloaded is returned by Infer when the admission queue is full:
	// the caller sheds load (or retries with backoff) instead of queueing
	// without bound.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed is returned by Infer after Close has begun draining.
	ErrClosed = errors.New("serve: engine closed")
)

// PadPolicy selects how a gathered batch pads to its bucket.
type PadPolicy uint8

const (
	// PadFixed (the default) pads every batch to ceilPow2(MaxBatch):
	// constant batch geometry, so a sample's output bits are independent
	// of batch composition and traffic (see the package comment).
	PadFixed PadPolicy = iota
	// PadPow2 pads to the next power of two of the gathered count: less
	// padding compute at light load, but a sample's bits may vary with the
	// bucket it lands in (different GEMM m-buckets use different
	// accumulation orders).
	PadPow2
)

// Config tunes the batching engine. The zero value gets serving defaults.
type Config struct {
	// MaxBatch is the largest number of samples gathered into one forward
	// (default 8). Gathered batches pad up to their bucket per Pad, never
	// beyond ceilPow2(MaxBatch).
	MaxBatch int
	// Pad selects the padding policy (default PadFixed).
	Pad PadPolicy
	// QueueDepth bounds the admission queue (default 4×MaxBatch). A full
	// queue rejects with ErrOverloaded.
	QueueDepth int
	// BatchWindow is how long the batching loop holds an underfull batch
	// open for more arrivals (default 200µs). Zero means the default; a
	// negative value disables waiting (every batch ships immediately).
	BatchWindow time.Duration
}

func (c *Config) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Requests      int64 // samples admitted and answered
	Batches       int64 // forward passes run
	PaddedSamples int64 // replicated padding samples across all batches
	Rejected      int64 // ErrOverloaded rejections
}

// MeanBatch is the average samples per forward (0 before the first batch).
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// request is one admitted sample riding the queue to the batching loop.
type request struct {
	x    *tensor.Tensor // caller-owned; read once during batch assembly
	resp *tensor.Tensor // engine-allocated; caller-owned after done
	err  error
	done chan struct{}
}

// Engine serves an InferenceState. One batching goroutine owns the
// Inferencer (whose arenas are not concurrency-safe); any number of
// goroutines may call Infer concurrently.
type Engine struct {
	inf *core.Inferencer
	cfg Config

	mu     sync.RWMutex // closed/queue lifecycle; RLock on the submit path
	closed bool
	queue  chan *request

	// Sample-shape contract, fixed by the first admitted request: every
	// sample must share it, so batch buffers recycle by padded size alone.
	shapeMu sync.Mutex
	shape   []int

	done chan struct{} // batching loop exited

	// Batching-loop state (single goroutine; no locks).
	batchScratch []*request
	inBufs       map[int]*tensor.Tensor // padded sample count -> input buffer

	statMu sync.Mutex
	stats  Stats
}

// New builds an engine over a forward-only state and starts its batching
// loop. Call Close to drain and stop it.
func New(st *core.InferenceState, cfg Config) *Engine {
	cfg.setDefaults()
	e := &Engine{
		inf:    core.NewInferencer(st),
		cfg:    cfg,
		queue:  make(chan *request, cfg.QueueDepth),
		done:   make(chan struct{}),
		inBufs: make(map[int]*tensor.Tensor),
	}
	go e.loop()
	return e
}

// Infer submits one sample and blocks until its outputs are ready. x is one
// sample — for an MLP a (1, features) row, for a GPT model a (seq, 1)
// token column, for a CNN a (1, c, h, w) image — and every sample the
// engine ever sees must share one shape (the first request fixes it). The
// caller must not mutate x until Infer returns; the returned tensor is
// freshly allocated and owned by the caller. Under PadFixed the response
// bits depend only on the sample: whatever batch it lands in, they equal
// the offline inference forward of the sample at the serving geometry
// (the sample replicated to the fixed bucket).
func (e *Engine) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x == nil || x.Rank() == 0 || x.Dim(0) < 1 {
		return nil, fmt.Errorf("serve: invalid sample tensor")
	}
	if err := e.checkShape(x); err != nil {
		return nil, err
	}
	r := &request{x: x, done: make(chan struct{})}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case e.queue <- r:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.statMu.Lock()
		e.stats.Rejected++
		e.statMu.Unlock()
		return nil, ErrOverloaded
	}
	<-r.done
	return r.resp, r.err
}

func (e *Engine) checkShape(x *tensor.Tensor) error {
	e.shapeMu.Lock()
	defer e.shapeMu.Unlock()
	if e.shape == nil {
		e.shape = append([]int(nil), x.Shape()...)
		return nil
	}
	got := x.Shape()
	if len(got) != len(e.shape) {
		return fmt.Errorf("serve: sample shape %v does not match engine shape %v", got, e.shape)
	}
	for i, d := range e.shape {
		if got[i] != d {
			return fmt.Errorf("serve: sample shape %v does not match engine shape %v", got, e.shape)
		}
	}
	return nil
}

// Close drains gracefully: admission stops (ErrClosed), every already-
// queued request is served, and the batching loop exits. It always
// returns nil. Safe to call more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	<-e.done
	return nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return e.stats
}

func (e *Engine) loop() {
	defer close(e.done)
	for r := range e.queue {
		e.runBatch(e.gather(r))
	}
}

// gather assembles one batch: the leading request, then up to
// MaxBatch-1 more, waiting at most BatchWindow for stragglers. A closed
// queue ends gathering early with whatever arrived.
func (e *Engine) gather(first *request) []*request {
	batch := append(e.batchScratch[:0], first)
	if e.cfg.MaxBatch > 1 && e.cfg.BatchWindow > 0 {
		timer := time.NewTimer(e.cfg.BatchWindow)
		for len(batch) < e.cfg.MaxBatch {
			select {
			case r, ok := <-e.queue:
				if !ok {
					timer.Stop()
					e.batchScratch = batch
					return batch
				}
				batch = append(batch, r)
			case <-timer.C:
				e.batchScratch = batch
				return batch
			}
		}
		timer.Stop()
	} else {
		// No waiting: take only what is already queued.
		for len(batch) < e.cfg.MaxBatch {
			select {
			case r, ok := <-e.queue:
				if !ok {
					e.batchScratch = batch
					return batch
				}
				batch = append(batch, r)
			default:
				e.batchScratch = batch
				return batch
			}
		}
	}
	e.batchScratch = batch
	return batch
}

// ceilPow2 returns the smallest power of two ≥ n.
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// runBatch pads the gathered samples to a power-of-two bucket (replicating
// the last sample, so padding rows exercise the exact kernels real rows
// do), runs one windowed inference forward, and slices each request's rows
// out of the batch output into its own response tensor.
func (e *Engine) runBatch(batch []*request) {
	k := len(batch)
	if k == 0 {
		return
	}
	kPad := ceilPow2(k)
	if e.cfg.Pad == PadFixed {
		kPad = ceilPow2(e.cfg.MaxBatch)
	}
	s0 := batch[0].x.Dim(0)
	sampleLen := batch[0].x.Len()

	in, ok := e.inBufs[kPad]
	if !ok {
		shape := append([]int{kPad * s0}, batch[0].x.Shape()[1:]...)
		in = tensor.New(shape...)
		e.inBufs[kPad] = in
	}
	dst := in.Data()
	for i, r := range batch {
		copy(dst[i*sampleLen:(i+1)*sampleLen], r.x.Data())
	}
	last := batch[k-1].x.Data()
	for i := k; i < kPad; i++ {
		copy(dst[i*sampleLen:(i+1)*sampleLen], last)
	}

	y := e.inf.Forward(in)
	if y.Dim(0)%kPad != 0 {
		err := fmt.Errorf("serve: model output dim 0 %d not divisible by batch %d", y.Dim(0), kPad)
		for _, r := range batch {
			r.err = err
			close(r.done)
		}
		return
	}
	rps := y.Dim(0) / kPad // output rows per sample
	rowLen := y.Len() / y.Dim(0)
	outShape := append([]int{rps}, y.Shape()[1:]...)
	src := y.Data()
	for i, r := range batch {
		r.resp = tensor.New(outShape...)
		copy(r.resp.Data(), src[i*rps*rowLen:(i+1)*rps*rowLen])
		close(r.done)
	}

	e.statMu.Lock()
	e.stats.Requests += int64(k)
	e.stats.Batches++
	e.stats.PaddedSamples += int64(kPad - k)
	e.statMu.Unlock()
}
