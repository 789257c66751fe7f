// Package parallel provides the persistent worker pool that executes every
// CPU kernel in the repository — dense GEMMs, im2col, fp16 conversions, and
// the sparse compress/expand and SpMM/SDDMM hot paths all partition their
// iteration spaces through For or Run.
//
// The pool replaces the seed's per-call goroutine spawning: workers are
// started once (lazily, on first use) and fed fixed-size task descriptors
// through a buffered channel, so dispatching a kernel costs two channel
// operations instead of a goroutine create/destroy pair. Submission never
// blocks — when the queue is full the submitting goroutine runs the chunk
// inline — and waiters help drain the queue instead of sleeping, so nested
// parallel sections cannot deadlock and the pool is work-conserving.
//
// Run is allocation-free in steady state (task descriptors travel by value,
// completion counters are recycled through a free list), which is what lets
// kernels like MatMulInto promise zero allocations per call.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the parallelism of a single For/Run call. It is atomic
// so tests (and callers tuning mid-run) can flip it while kernels are in
// flight on other goroutines without a data race.
var maxWorkers atomic.Int64

func init() { maxWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetWorkers overrides the per-call worker bound (n < 1 resets to
// GOMAXPROCS) and returns the previous value. It is safe to call
// concurrently with running kernels: in-flight calls keep the bound they
// read at entry, subsequent calls observe the new one. The persistent pool
// itself is sized at GOMAXPROCS once; SetWorkers only narrows how many
// chunks a call fans out, so changing it mid-run never strands tasks.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int64(n)))
}

// Workers returns the current per-call worker bound.
func Workers() int { return int(maxWorkers.Load()) }

// task is one contiguous chunk of an iteration space. fn is always a
// top-level function (never a closure) so building a task allocates
// nothing; per-call state travels through ctx.
type task struct {
	ctx     any
	fn      func(ctx any, lo, hi int)
	lo, hi  int
	pending *atomic.Int64
}

// Pool is a concurrency-safe typed free list: Get pops a recycled *T (or
// allocates a zero one), Put pushes it back. The zero value is ready to
// use. It is a plain locked list rather than a sync.Pool deliberately —
// the GC may clear sync.Pools, and the zero-allocation contracts on kernel
// dispatch and training steps must hold across collections. Shared by the
// pool's own completion counters, the tensor kernels' job descriptors, the
// sparse gather/scatter jobs, and the nn layer cache structs.
type Pool[T any] struct {
	mu   sync.Mutex
	list []*T
}

// Get returns a recycled or freshly zero-allocated *T.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	n := len(p.list)
	if n == 0 {
		p.mu.Unlock()
		return new(T)
	}
	x := p.list[n-1]
	p.list = p.list[:n-1]
	p.mu.Unlock()
	return x
}

// Put recycles x. The caller must not use x afterwards; clear any pointer
// fields first if they should not be retained.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	p.list = append(p.list, x)
	p.mu.Unlock()
}

// pendingFree recycles the per-call completion counters.
var pendingFree Pool[atomic.Int64]

// pool is the process-wide worker pool, started on first use. The task
// channel is buffered generously so bursts of small kernels from many
// training goroutines queue instead of forcing inline execution.
var pool struct {
	once  sync.Once
	tasks chan task
}

func startPool() {
	n := runtime.GOMAXPROCS(0)
	pool.tasks = make(chan task, 8*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range pool.tasks {
				t.fn(t.ctx, t.lo, t.hi)
				t.pending.Add(-1)
			}
		}()
	}
}

// Run partitions [0, n) into contiguous chunks of at least grain iterations
// and executes fn(ctx, lo, hi) over them on the worker pool, running the
// final chunk on the calling goroutine. fn must be safe for concurrent
// chunks (chunks are disjoint). To keep the call allocation-free, pass a
// top-level function for fn and carry per-call state in ctx (a pointer in an
// interface does not allocate).
func Run(n, grain int, ctx any, fn func(ctx any, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := Workers()
	if max := (n + grain - 1) / grain; workers > max {
		workers = max
	}
	if workers <= 1 {
		fn(ctx, 0, n)
		return
	}
	pool.once.Do(startPool)
	pending := pendingFree.Get()
	chunk := (n + workers - 1) / workers
	lo := 0
	for w := 0; w < workers-1; w++ {
		hi := lo + chunk
		if hi >= n {
			break
		}
		pending.Add(1)
		select {
		case pool.tasks <- task{ctx: ctx, fn: fn, lo: lo, hi: hi, pending: pending}:
		default:
			// Queue full: run the chunk inline rather than blocking.
			fn(ctx, lo, hi)
			pending.Add(-1)
		}
		lo = hi
	}
	// The caller always executes the last chunk itself, so at least one
	// chunk makes progress even when the pool is saturated.
	fn(ctx, lo, n)
	// Helping wait: drain queued tasks (ours or anyone's) until our chunks
	// are done. Waiters never sleep while work is queued, so a Run issued
	// from inside a pool task can always make progress — no deadlock.
	for pending.Load() > 0 {
		select {
		case t := <-pool.tasks:
			t.fn(t.ctx, t.lo, t.hi)
			t.pending.Add(-1)
		default:
			runtime.Gosched()
		}
	}
	pendingFree.Put(pending)
}

// forCtx adapts For's closure to Run's top-level-function shape.
func forCtx(ctx any, lo, hi int) { (*(ctx.(*func(lo, hi int))))(lo, hi) }

// For runs fn(lo, hi) over a static partition of [0, n), like Run, but with
// the convenience of a closure. The closure escapes into the pool, so For
// allocates per call — it is the prototyping form. Run IS the
// context-carrying variant: kernels with zero-allocation contracts define
// a job struct recycled through a Pool, pass it as ctx with a top-level
// fn, and allocate nothing (see panelJob, ixJob, attnJob, im2colJob for
// the pattern). As of PR 2 every hot-path kernel in the repository uses
// Run; For remains for tests and one-off tools.
func For(n, grain int, fn func(lo, hi int)) {
	Run(n, grain, &fn, forCtx)
}
