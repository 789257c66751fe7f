// Package comm is the communication fabric standing in for NCCL/MPI on
// Summit: one goroutine per rank, a pluggable Transport as the links. It
// provides the two communication patterns the paper optimizes —
//
//   - asynchronous point-to-point messaging with a per-rank inbox (AxoNN's
//     message-driven scheduling reads whatever activation/gradient arrives
//     next, §II-E), used by inter-layer parallelism;
//   - ring-based collectives (all-reduce, reduce-scatter, all-gather,
//     broadcast, barrier) used by data parallelism.
//
// The default transport is the in-process channel mesh (LocalTransport);
// internal/comm/tcp supplies a multi-process wire transport with identical
// semantics (see transport.go). Every rank records the bytes it moved, so
// experiments can attribute communication volume exactly.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparse-dl/samo/internal/parallel"
)

// maxPoolFloats bounds a fabric's collective buffer pool (4 MiB of
// float32s). The pool recycles chunk buffers, handed from sender to
// receiver zero-copy and returned by the receiver after folding the
// payload in, so steady-state collectives allocate nothing. It is shared by
// the ranks of ONE Fabric but scoped to it, not the process: experiment
// sweeps create many fabrics with many distinct buffer sizes, and a
// process-wide pool retained every one of them forever. A G-rank ring
// collective keeps at most a few chunks in flight per rank, so steady
// state sits far below the bound; it only bites when a sweep pushes many
// distinct large sizes through one fabric.
const maxPoolFloats = 1 << 20

// PooledBytes returns the bytes currently retained by the fabric's
// collective buffer pool (bounded by maxPoolFloats).
func (f *Fabric) PooledBytes() int64 { return f.bufs.Retained() * 4 }

// Tag classifies data-plane messages so the engine can dispatch them.
type Tag int

// Data-plane message tags used by the training engine.
const (
	TagActivation Tag = iota // forward activations, stage i -> i+1
	TagGradient              // backward gradients, stage i+1 -> i
	TagControl               // engine control messages
)

// Message is one point-to-point payload. MB identifies the microbatch it
// belongs to; Seq is a sender-assigned sequence number; Shape optionally
// carries the tensor geometry so the receiver can reconstruct it.
type Message struct {
	From  int
	Tag   Tag
	MB    int
	Data  []float32
	Shape []int
	Seq   int
}

// Stats counts a rank's traffic (bytes assume 4-byte elements unless the
// caller scales; the engine accounts fp16 payloads at 2 bytes itself).
type Stats struct {
	P2PMessages  atomic.Int64
	P2PElements  atomic.Int64
	CollOps      atomic.Int64
	CollElements atomic.Int64
	// ExposedCollNanos is wall time the rank's goroutine spent BLOCKED in
	// collectives: the full duration of synchronous calls plus only the
	// waiting tail of async ones (launch-to-completion time hidden behind
	// compute is, by definition, not exposed). The overlap win is this
	// counter shrinking while CollElements stays constant.
	ExposedCollNanos atomic.Int64
}

// Fabric connects n ranks. Create once, then hand each goroutine its Rank.
// A fabric carries a fault model (see fault.go): it can be poisoned — by an
// injected FaultPlan, the collective deadline detector, or an engine calling
// Poison/Fail — after which every blocking primitive returns the poison
// error instead of waiting on dead peers.
type Fabric struct {
	n      int
	tr     Transport
	remote bool // any rank not local to this process
	stats  []Stats
	bufs   parallel.ClassPool[float32]

	// Poison state: one-way, first error wins (fault.go).
	poisonOnce sync.Once
	poisoned   atomic.Bool
	poisonErr  error
	poisonCh   chan struct{}

	// Backstop detector: blocking receives give up after this long (0=off).
	deadlineNs atomic.Int64

	// Armed fault plan (nil-equivalent when faulty is false).
	faulty      bool
	crashAtStep []int // per rank, -1 = never
	crashAtOp   []int
	dropEvery   int
	delayEvery  int
	faultSeed   uint64
	p2pSeen     atomic.Int64
	delayMu     sync.Mutex
	delayed     []*Message // per destination, at most one held-back message
}

// NewFabric creates an in-process fabric with n ranks and generous channel
// buffering (sends are asynchronous until the buffer fills, mirroring
// NCCL's eager protocol for small messages).
func NewFabric(n int) *Fabric {
	return NewFabricOver(NewLocalTransport(n))
}

// NewFabricOver creates a fabric on an explicit transport (the channel mesh
// via NewLocalTransport, or a wire transport such as tcp.Connect). The
// fabric takes ownership: Fabric.Close tears the transport down.
func NewFabricOver(tr Transport) *Fabric {
	n := tr.Size()
	if n < 1 {
		panic("comm: fabric needs at least one rank")
	}
	f := &Fabric{n: n,
		tr:       tr,
		stats:    make([]Stats, n),
		poisonCh: make(chan struct{}),
	}
	f.bufs.Max = maxPoolFloats
	for r := 0; r < n; r++ {
		if !tr.IsLocal(r) {
			f.remote = true
			break
		}
	}
	tr.Attach(f)
	return f
}

// Size returns the number of ranks.
func (f *Fabric) Size() int { return f.n }

// Rank returns the handle for rank r, which must be local to this process's
// transport. Each handle must be used by a single goroutine.
func (f *Fabric) Rank(r int) *Rank {
	if r < 0 || r >= f.n {
		panic(fmt.Sprintf("comm: rank %d out of [0,%d)", r, f.n))
	}
	if !f.tr.IsLocal(r) {
		panic(fmt.Sprintf("comm: rank %d is not local to this process's transport", r))
	}
	return &Rank{f: f, r: r, step: -1, pending: make(map[pendKey]*pendQueue)}
}

// Stats returns the traffic counters for rank r.
func (f *Fabric) Stats(r int) *Stats { return &f.stats[r] }

// TotalP2PElements sums point-to-point elements over all ranks.
func (f *Fabric) TotalP2PElements() int64 {
	var s int64
	for i := range f.stats {
		s += f.stats[i].P2PElements.Load()
	}
	return s
}

// TotalCollElements sums collective elements over all ranks.
func (f *Fabric) TotalCollElements() int64 {
	var s int64
	for i := range f.stats {
		s += f.stats[i].CollElements.Load()
	}
	return s
}

// TotalExposedCollNanos sums exposed (blocking) collective wall time over
// all ranks. See Stats.ExposedCollNanos for the exposure semantics.
func (f *Fabric) TotalExposedCollNanos() int64 {
	var s int64
	for i := range f.stats {
		s += f.stats[i].ExposedCollNanos.Load()
	}
	return s
}

type pendKey struct {
	from, tag int
}

// pendQueue is a FIFO of out-of-order collective messages. It reuses its
// backing array (head index instead of re-slicing) so transient reordering
// does not allocate in steady state, and compacts the live tail to the
// front once the dead prefix dominates, so a queue that never fully drains
// (steady push/pop interleave) cannot grow its backing array without
// bound.
type pendQueue struct {
	items []CollFrame
	head  int
}

// pendCompactMin is the dead-prefix length below which pop skips
// compaction: tiny queues reset for free when they drain, and compacting
// every pop would turn the O(1) head-index pop back into O(n) shifting.
const pendCompactMin = 32

func (q *pendQueue) push(m CollFrame) { q.items = append(q.items, m) }

func (q *pendQueue) pop() (CollFrame, bool) {
	if q.head >= len(q.items) {
		return CollFrame{}, false
	}
	m := q.items[q.head]
	q.items[q.head] = CollFrame{}
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head >= pendCompactMin && q.head*2 >= len(q.items):
		// Dead prefix is at least half the array and worth reclaiming:
		// move the live tail down. Amortized O(1) — a compaction of k
		// moves is paid for by the >=k pops that created the prefix.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return m, true
}

// Rank is one participant's endpoint. Not safe for concurrent use by
// multiple goroutines (each simulated GPU is one goroutine, as on the real
// machine each GPU has one process).
type Rank struct {
	f       *Fabric
	r       int
	pending map[pendKey]*pendQueue
	seq     int
	step    int       // current engine step (BeginStep), for failure attribution
	ops     int       // collective entries so far, for CrashAtOp fault points
	scratch []float32 // reusable single-element buffer (barriers, flags)
	bounds  []int     // reusable chunk-boundary scratch for ring collectives

	// Async collective lane (async.go). The worker goroutine executes
	// queued operations serially, reusing this Rank's matching state —
	// safe because the owner never runs a collective while handles are
	// outstanding (the engine drains before any synchronous call).
	asyncCh     chan asyncOp
	asyncDone   chan struct{}
	freeHandles []*ReduceHandle // owner-side handle pool (zero-alloc steady state)
}

// chunkBounds fills the rank's reusable boundary scratch (ring collectives
// run once per gradient buffer per batch; allocating here would defeat the
// engine's zero-alloc steady state).
func (rk *Rank) chunkBounds(n, g int) []int {
	if cap(rk.bounds) < g+1 {
		rk.bounds = make([]int, g+1)
	}
	rk.bounds = rk.bounds[:g+1]
	fillChunkBounds(rk.bounds, n, g)
	return rk.bounds
}

// ID returns this rank's index.
func (rk *Rank) ID() int { return rk.r }

// Size returns the fabric size.
func (rk *Rank) Size() int { return rk.f.n }

// Send delivers a data-plane message asynchronously. The data slice is
// handed over; the sender must not modify it afterwards (zero-copy, like a
// GPU handing a buffer to the NIC). shape, if given, describes the tensor
// geometry of data. On a poisoned fabric Send returns the poison error;
// under an armed fault plan the message may be deterministically dropped or
// held back (delivered after the destination's next message).
func (rk *Rank) Send(to int, tag Tag, mb int, data []float32, shape ...int) error {
	if err := rk.f.Err(); err != nil {
		return err
	}
	rk.seq++
	rk.f.stats[rk.r].P2PMessages.Add(1)
	rk.f.stats[rk.r].P2PElements.Add(int64(len(data)))
	msg := Message{From: rk.r, Tag: tag, MB: mb, Data: data, Shape: shape, Seq: rk.seq}
	if rk.f.faulty {
		n := uint64(rk.f.p2pSeen.Add(1)) + rk.f.faultSeed
		if d := rk.f.dropEvery; d > 0 && n%uint64(d) == 0 {
			return nil // lost on the wire; the deadline detector is the remedy
		}
		if d := rk.f.delayEvery; d > 0 && n%uint64(d) == 0 {
			rk.f.delayMu.Lock()
			held := rk.f.delayed[to]
			rk.f.delayed[to] = &msg
			rk.f.delayMu.Unlock()
			if held == nil {
				return nil
			}
			msg = *held // two holds collide: the older one goes out now
		}
	}
	if err := rk.deliver(to, msg); err != nil {
		return err
	}
	if rk.f.delayed != nil {
		rk.f.delayMu.Lock()
		held := rk.f.delayed[to]
		rk.f.delayed[to] = nil
		rk.f.delayMu.Unlock()
		if held != nil {
			return rk.deliver(to, *held)
		}
	}
	return nil
}

func (rk *Rank) deliver(to int, msg Message) error {
	return rk.f.tr.SendData(to, msg)
}

// Recv blocks for the next data-plane message. It returns the poison error
// as soon as the fabric dies (messages already queued are not drained), and
// trips the deadline detector when one is configured.
func (rk *Rank) Recv() (Message, error) {
	if err := rk.f.Err(); err != nil {
		return Message{}, err
	}
	var timeout <-chan time.Time
	d := rk.f.deadline()
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case m := <-rk.f.tr.DataCh(rk.r):
		return m, nil
	case <-rk.f.poisonCh:
		return Message{}, rk.f.Err()
	case <-timeout:
		err := &DeadlineError{Rank: rk.r, Step: rk.step, Timeout: d}
		rk.f.Poison(err)
		return Message{}, err
	}
}

// --- Collectives -----------------------------------------------------------
//
// All collective calls must be made by every rank of the group, with equal
// buffer lengths, in the same order. Internally they use a control-plane
// channel with (from, tag) matching so concurrent groups cannot interfere.

func (rk *Rank) sendColl(to, tag int, data []float32) error {
	return rk.f.tr.SendColl(to, CollFrame{From: rk.r, Tag: tag, Data: data})
}

func (rk *Rank) recvColl(from, tag int) ([]float32, error) {
	k := pendKey{from, tag}
	if q := rk.pending[k]; q != nil {
		if m, ok := q.pop(); ok {
			return m.Data, nil
		}
	}
	var timeout <-chan time.Time
	d := rk.f.deadline()
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		if err := rk.f.Err(); err != nil {
			return nil, err
		}
		select {
		case m := <-rk.f.tr.CollCh(rk.r):
			if m.From == from && m.Tag == tag {
				return m.Data, nil
			}
			mk := pendKey{m.From, m.Tag}
			q := rk.pending[mk]
			if q == nil {
				q = &pendQueue{}
				rk.pending[mk] = q
			}
			q.push(m)
		case <-rk.f.poisonCh:
			return nil, rk.f.Err()
		case <-timeout:
			err := &DeadlineError{Rank: rk.r, Step: rk.step, Timeout: d}
			rk.f.Poison(err)
			return nil, err
		}
	}
}

// groupPos returns this rank's index within group, panicking if absent.
func (rk *Rank) groupPos(group []int) int {
	for i, g := range group {
		if g == rk.r {
			return i
		}
	}
	panic(fmt.Sprintf("comm: rank %d not in group %v", rk.r, group))
}

// Collective opcode bases for tag construction.
const (
	opAllReduce = 1 << 20
	opGather    = 2 << 20
	opBcast     = 3 << 20
	opRS        = 5 << 20
	opAG        = 6 << 20
)

// AllReduce sums buf across the group in place using the bandwidth-optimal
// ring algorithm (reduce-scatter then all-gather), the same structure NCCL
// uses for large messages — each rank sends 2·(G−1)/G of the buffer. On a
// poisoned fabric (or when a fault fires) it unwinds with the typed error;
// buf's contents are then unspecified and the caller must not step on them.
func (rk *Rank) AllReduce(group []int, buf []float32) error {
	start := time.Now()
	err := rk.allReduce(group, buf)
	rk.f.stats[rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// allReduce is AllReduce without the exposed-time accounting, shared with
// the async lane (async hidden time must not count as exposed).
func (rk *Rank) allReduce(group []int, buf []float32) error {
	if err := rk.enterColl(); err != nil {
		return err
	}
	g := len(group)
	if g == 1 {
		return nil
	}
	pos := rk.groupPos(group)
	next := group[(pos+1)%g]
	prev := group[(pos-1+g)%g]
	bounds := rk.chunkBounds(len(buf), g)
	rk.f.stats[rk.r].CollOps.Add(1)

	// Reduce-scatter: after step s, each rank has accumulated chunk
	// (pos-s) from s+1 ranks; after G-1 steps rank p owns the full sum of
	// chunk (p+1) mod G.
	for s := 0; s < g-1; s++ {
		sendChunk := (pos - s + g) % g
		recvChunk := (pos - s - 1 + g) % g
		lo, hi := bounds[sendChunk], bounds[sendChunk+1]
		out := rk.f.bufs.Get(hi - lo)
		copy(out, buf[lo:hi])
		if err := rk.sendColl(next, opAllReduce+s, out); err != nil {
			return err
		}
		in, err := rk.recvColl(prev, opAllReduce+s)
		if err != nil {
			return err
		}
		lo, hi = bounds[recvChunk], bounds[recvChunk+1]
		rk.f.stats[rk.r].CollElements.Add(int64(hi - lo))
		for i := range in {
			buf[lo+i] += in[i]
		}
		rk.f.bufs.Put(in)
	}
	// All-gather: circulate the finished chunks.
	for s := 0; s < g-1; s++ {
		sendChunk := (pos + 1 - s + g) % g
		recvChunk := (pos - s + g) % g
		lo, hi := bounds[sendChunk], bounds[sendChunk+1]
		out := rk.f.bufs.Get(hi - lo)
		copy(out, buf[lo:hi])
		if err := rk.sendColl(next, opAllReduce+1000+s, out); err != nil {
			return err
		}
		in, err := rk.recvColl(prev, opAllReduce+1000+s)
		if err != nil {
			return err
		}
		lo, hi = bounds[recvChunk], bounds[recvChunk+1]
		rk.f.stats[rk.r].CollElements.Add(int64(hi - lo))
		copy(buf[lo:hi], in)
		rk.f.bufs.Put(in)
	}
	return nil
}

// AllReduceOrdered sums buf across the group with a rank-ordered
// gather-to-root reduction: the floating-point additions happen in group
// order, exactly matching a serial loop over ranks. Used where bitwise
// reproducibility against a serial reference matters more than bandwidth.
func (rk *Rank) AllReduceOrdered(group []int, buf []float32) error {
	start := time.Now()
	err := rk.allReduceOrdered(group, buf)
	rk.f.stats[rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// allReduceOrdered is AllReduceOrdered without the exposed-time accounting,
// shared with the async lane.
func (rk *Rank) allReduceOrdered(group []int, buf []float32) error {
	if err := rk.enterColl(); err != nil {
		return err
	}
	g := len(group)
	if g == 1 {
		return nil
	}
	pos := rk.groupPos(group)
	root := group[0]
	rk.f.stats[rk.r].CollOps.Add(1)
	if pos == 0 {
		for i := 1; i < g; i++ {
			in, err := rk.recvColl(group[i], opGather+i)
			if err != nil {
				return err
			}
			rk.f.stats[rk.r].CollElements.Add(int64(len(in)))
			for j := range buf {
				buf[j] += in[j]
			}
			rk.f.bufs.Put(in)
		}
	} else {
		out := rk.f.bufs.Get(len(buf))
		copy(out, buf)
		if err := rk.sendColl(root, opGather+pos, out); err != nil {
			return err
		}
	}
	return rk.broadcast(group, root, buf)
}

// Broadcast copies root's buf to every rank (binomial-tree free: simple
// root-sends-all, adequate in-process).
func (rk *Rank) Broadcast(group []int, root int, buf []float32) error {
	start := time.Now()
	err := rk.enterColl()
	if err == nil {
		err = rk.broadcast(group, root, buf)
	}
	rk.f.stats[rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// broadcast is Broadcast without the collective-entry prologue, for reuse
// inside AllReduceOrdered (one logical collective, one fault point).
func (rk *Rank) broadcast(group []int, root int, buf []float32) error {
	pos := rk.groupPos(group)
	rootPos := -1
	for i, g := range group {
		if g == root {
			rootPos = i
			break
		}
	}
	if rootPos < 0 {
		panic("comm: broadcast root not in group")
	}
	if pos == rootPos {
		for i, g := range group {
			if i == rootPos {
				continue
			}
			out := rk.f.bufs.Get(len(buf))
			copy(out, buf)
			if err := rk.sendColl(g, opBcast+i, out); err != nil {
				return err
			}
		}
	} else {
		in, err := rk.recvColl(root, opBcast+pos)
		if err != nil {
			return err
		}
		rk.f.stats[rk.r].CollElements.Add(int64(len(in)))
		copy(buf, in)
		rk.f.bufs.Put(in)
	}
	return nil
}

// ReduceScatter sums buf across the group and leaves each rank with its
// owned chunk in out (chunk boundaries from chunkBounds). buf is clobbered.
func (rk *Rank) ReduceScatter(group []int, buf []float32) ([]float32, error) {
	start := time.Now()
	out, err := rk.reduceScatter(group, buf)
	rk.f.stats[rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	return out, err
}

func (rk *Rank) reduceScatter(group []int, buf []float32) ([]float32, error) {
	if err := rk.enterColl(); err != nil {
		return nil, err
	}
	g := len(group)
	pos := rk.groupPos(group)
	bounds := rk.chunkBounds(len(buf), g)
	if g == 1 {
		out := make([]float32, len(buf))
		copy(out, buf)
		return out, nil
	}
	next := group[(pos+1)%g]
	prev := group[(pos-1+g)%g]
	rk.f.stats[rk.r].CollOps.Add(1)
	// Chunk schedule chosen so rank at position p finishes owning chunk p
	// (matching AllGather's convention): send (p−s−1), receive (p−s−2).
	for s := 0; s < g-1; s++ {
		sendChunk := (pos - s - 1 + 2*g) % g
		recvChunk := (pos - s - 2 + 2*g) % g
		lo, hi := bounds[sendChunk], bounds[sendChunk+1]
		out := rk.f.bufs.Get(hi - lo)
		copy(out, buf[lo:hi])
		if err := rk.sendColl(next, opRS+s, out); err != nil {
			return nil, err
		}
		in, err := rk.recvColl(prev, opRS+s)
		if err != nil {
			return nil, err
		}
		lo, hi = bounds[recvChunk], bounds[recvChunk+1]
		rk.f.stats[rk.r].CollElements.Add(int64(hi - lo))
		for i := range in {
			buf[lo+i] += in[i]
		}
		rk.f.bufs.Put(in)
	}
	own := pos
	lo, hi := bounds[own], bounds[own+1]
	out := make([]float32, hi-lo)
	copy(out, buf[lo:hi])
	return out, nil
}

// AllGather concatenates each rank's chunk into full (length = total);
// chunk sizes must follow chunkBounds(total, G).
func (rk *Rank) AllGather(group []int, chunk []float32, total int) ([]float32, error) {
	start := time.Now()
	full, err := rk.allGather(group, chunk, total)
	rk.f.stats[rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	return full, err
}

func (rk *Rank) allGather(group []int, chunk []float32, total int) ([]float32, error) {
	if err := rk.enterColl(); err != nil {
		return nil, err
	}
	g := len(group)
	pos := rk.groupPos(group)
	full := make([]float32, total)
	bounds := rk.chunkBounds(total, g)
	lo := bounds[pos]
	copy(full[lo:lo+len(chunk)], chunk)
	if g == 1 {
		return full, nil
	}
	next := group[(pos+1)%g]
	prev := group[(pos-1+g)%g]
	rk.f.stats[rk.r].CollOps.Add(1)
	cur := pos
	for s := 0; s < g-1; s++ {
		clo, chi := bounds[cur], bounds[cur+1]
		out := rk.f.bufs.Get(chi - clo)
		copy(out, full[clo:chi])
		if err := rk.sendColl(next, opAG+s, out); err != nil {
			return nil, err
		}
		in, err := rk.recvColl(prev, opAG+s)
		if err != nil {
			return nil, err
		}
		cur = (cur - 1 + g) % g
		clo, chi = bounds[cur], bounds[cur+1]
		rk.f.stats[rk.r].CollElements.Add(int64(chi - clo))
		copy(full[clo:chi], in)
		rk.f.bufs.Put(in)
	}
	return full, nil
}

// Barrier blocks until every rank of the group has entered it (or the
// fabric dies, in which case it unwinds with the poison error).
func (rk *Rank) Barrier(group []int) error {
	if rk.scratch == nil {
		rk.scratch = make([]float32, 1)
	}
	rk.scratch[0] = 1
	return rk.AllReduceOrdered(group, rk.scratch)
}

// chunkBounds splits n elements into g nearly equal contiguous chunks,
// returning g+1 boundaries.
func chunkBounds(n, g int) []int {
	b := make([]int, g+1)
	fillChunkBounds(b, n, g)
	return b
}

func fillChunkBounds(b []int, n, g int) {
	b[0] = 0
	base, rem := n/g, n%g
	for i := 0; i < g; i++ {
		b[i+1] = b[i] + base
		if i < rem {
			b[i+1]++
		}
	}
}
