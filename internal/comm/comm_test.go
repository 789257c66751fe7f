package comm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// runGroup executes fn concurrently on every rank of a fresh fabric.
func runGroup(n int, fn func(rk *Rank)) *Fabric {
	f := NewFabric(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(f.Rank(r))
		}(r)
	}
	wg.Wait()
	return f
}

func group(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// must / must1 panic on a primitive error: these tests run on healthy
// fabrics, so any error is a test bug and the panic carries the cause.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

func TestSendRecvBasic(t *testing.T) {
	f := NewFabric(2)
	s, r := f.Rank(0), f.Rank(1)
	must(s.Send(1, TagActivation, 7, []float32{1, 2, 3}))
	m := must1(r.Recv())
	if m.From != 0 || m.Tag != TagActivation || m.MB != 7 || len(m.Data) != 3 {
		t.Fatalf("bad message: %+v", m)
	}
	if f.Stats(0).P2PMessages.Load() != 1 || f.Stats(0).P2PElements.Load() != 3 {
		t.Error("stats not recorded")
	}
}

func TestSendIsAsync(t *testing.T) {
	// A send with no receiver posted must not block (buffered).
	f := NewFabric(2)
	s := f.Rank(0)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			must(s.Send(1, TagGradient, i, []float32{float32(i)}))
		}
		close(done)
	}()
	<-done // would deadlock if Send were synchronous
	r := f.Rank(1)
	for i := 0; i < 100; i++ {
		m := must1(r.Recv())
		if m.MB != i {
			t.Fatalf("message %d arrived as %d: FIFO violated", i, m.MB)
		}
	}
}

func TestAllReduceRingSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for _, sz := range []int{1, 5, 64, 129} {
			results := make([][]float32, n)
			runGroup(n, func(rk *Rank) {
				buf := make([]float32, sz)
				for i := range buf {
					buf[i] = float32(rk.ID()*1000 + i)
				}
				must(rk.AllReduce(group(n), buf))
				results[rk.ID()] = buf
			})
			for i := 0; i < sz; i++ {
				var want float32
				for r := 0; r < n; r++ {
					want += float32(r*1000 + i)
				}
				for r := 0; r < n; r++ {
					if math.Abs(float64(results[r][i]-want)) > 1e-3 {
						t.Fatalf("n=%d sz=%d rank %d elem %d: %g want %g",
							n, sz, r, i, results[r][i], want)
					}
				}
			}
		}
	}
}

func TestAllReduceOrderedMatchesSerialExactly(t *testing.T) {
	n, sz := 5, 100
	inputs := make([][]float32, n)
	rng := tensor.NewRNG(1)
	for r := range inputs {
		inputs[r] = make([]float32, sz)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Norm())
		}
	}
	want := make([]float32, sz)
	for r := 0; r < n; r++ { // serial rank-ordered sum
		for i := range want {
			want[i] += inputs[r][i]
		}
	}
	results := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		buf := append([]float32(nil), inputs[rk.ID()]...)
		must(rk.AllReduceOrdered(group(n), buf))
		results[rk.ID()] = buf
	})
	for r := 0; r < n; r++ {
		for i := range want {
			if results[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: %g != serial %g (must be bitwise)", r, i, results[r][i], want[i])
			}
		}
	}
}

func TestAllReduceSubgroupsConcurrently(t *testing.T) {
	// Two disjoint groups reducing at the same time must not interfere —
	// the data-parallel groups of AxoNN do exactly this.
	n := 4
	groups := [][]int{{0, 2}, {1, 3}}
	results := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		g := groups[rk.ID()%2]
		buf := []float32{float32(rk.ID() + 1)}
		must(rk.AllReduce(g, buf))
		results[rk.ID()] = buf
	})
	if results[0][0] != 4 || results[2][0] != 4 { // 1+3
		t.Errorf("group {0,2}: %v %v", results[0], results[2])
	}
	if results[1][0] != 6 || results[3][0] != 6 { // 2+4
		t.Errorf("group {1,3}: %v %v", results[1], results[3])
	}
}

func TestBroadcast(t *testing.T) {
	n := 4
	results := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		buf := []float32{0, 0}
		if rk.ID() == 2 {
			buf = []float32{5, 9}
		}
		must(rk.Broadcast(group(n), 2, buf))
		results[rk.ID()] = buf
	})
	for r := 0; r < n; r++ {
		if results[r][0] != 5 || results[r][1] != 9 {
			t.Errorf("rank %d got %v", r, results[r])
		}
	}
}

func TestReduceScatterThenAllGatherEqualsAllReduce(t *testing.T) {
	n, sz := 4, 37
	inputs := make([][]float32, n)
	rng := tensor.NewRNG(2)
	for r := range inputs {
		inputs[r] = make([]float32, sz)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Norm())
		}
	}
	viaRS := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		buf := append([]float32(nil), inputs[rk.ID()]...)
		chunk := must1(rk.ReduceScatter(group(n), buf))
		viaRS[rk.ID()] = must1(rk.AllGather(group(n), chunk, sz))
	})
	viaAR := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		buf := append([]float32(nil), inputs[rk.ID()]...)
		must(rk.AllReduce(group(n), buf))
		viaAR[rk.ID()] = buf
	})
	for r := 0; r < n; r++ {
		for i := 0; i < sz; i++ {
			if math.Abs(float64(viaRS[r][i]-viaAR[r][i])) > 1e-4 {
				t.Fatalf("rank %d elem %d: RS+AG %g vs AR %g", r, i, viaRS[r][i], viaAR[r][i])
			}
		}
	}
}

func TestBarrierReleasesAll(t *testing.T) {
	n := 5
	var entered atomic32
	runGroup(n, func(rk *Rank) {
		entered.add(1)
		must(rk.Barrier(group(n)))
		// After the barrier, everyone must have entered.
		if entered.load() != int32(n) {
			t.Errorf("rank %d passed barrier with %d/%d entered", rk.ID(), entered.load(), n)
		}
	})
}

type atomic32 struct {
	mu sync.Mutex
	v  int32
}

func (a *atomic32) add(d int32) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic32) load() int32 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestAllReduceLinearityProperty(t *testing.T) {
	// allreduce(a+b) == allreduce(a) + allreduce(b) elementwise (within fp
	// tolerance): the property gradient accumulation depends on.
	f := func(seed uint64) bool {
		n, sz := 3, 16
		rng := tensor.NewRNG(seed)
		a := make([][]float32, n)
		b := make([][]float32, n)
		for r := 0; r < n; r++ {
			a[r] = make([]float32, sz)
			b[r] = make([]float32, sz)
			for i := 0; i < sz; i++ {
				a[r][i] = float32(rng.Norm())
				b[r][i] = float32(rng.Norm())
			}
		}
		sum := func(in [][]float32) []float32 {
			var out []float32
			runGroup(n, func(rk *Rank) {
				buf := append([]float32(nil), in[rk.ID()]...)
				must(rk.AllReduce(group(n), buf))
				if rk.ID() == 0 {
					out = buf
				}
			})
			return out
		}
		ab := make([][]float32, n)
		for r := 0; r < n; r++ {
			ab[r] = make([]float32, sz)
			for i := range ab[r] {
				ab[r][i] = a[r][i] + b[r][i]
			}
		}
		ra, rb, rab := sum(a), sum(b), sum(ab)
		for i := 0; i < sz; i++ {
			if math.Abs(float64(ra[i]+rb[i]-rab[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCollectiveElementAccounting(t *testing.T) {
	n, sz := 4, 100
	f := runGroup(n, func(rk *Rank) {
		buf := make([]float32, sz)
		must(rk.AllReduce(group(n), buf))
	})
	// Ring all-reduce receives 2·(G−1)/G·sz elements per rank.
	perRank := f.Stats(0).CollElements.Load()
	want := int64(2 * (n - 1) * sz / n)
	if math.Abs(float64(perRank-want)) > float64(n) {
		t.Errorf("per-rank collective elements %d, want ≈%d", perRank, want)
	}
}

func TestOutOfOrderCollMatching(t *testing.T) {
	// A rank that is late to one collective must still match messages from
	// a subsequent one correctly (pending-queue path): run two back-to-back
	// reductions with skewed entry.
	n := 3
	results := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		a := []float32{float32(rk.ID())}
		b := []float32{float32(rk.ID() * 10)}
		must(rk.AllReduce(group(n), a))
		must(rk.AllReduce(group(n), b))
		results[rk.ID()] = []float32{a[0], b[0]}
	})
	for r := 0; r < n; r++ {
		if results[r][0] != 3 || results[r][1] != 30 {
			t.Errorf("rank %d: %v, want [3 30]", r, results[r])
		}
	}
}

func TestBufferPoolBoundedAcrossFabrics(t *testing.T) {
	// Experiment sweeps create many fabrics and push many distinct buffer
	// sizes through each. The collective buffer pool is scoped per fabric
	// and bounded, so (a) one fabric can never retain more than the bound
	// no matter how many sizes it sees, and (b) finished fabrics take their
	// pools with them instead of growing process-global state.
	const cycles = 8
	for cyc := 0; cyc < cycles; cyc++ {
		n := 3 + cyc%3
		f := runGroup(n, func(rk *Rank) {
			g := group(rk.Size())
			// Many distinct sizes per cycle, as a sweep over layer shapes
			// would produce.
			for _, sz := range []int{31, 64, 257, 1024, 4099, 16384, 65537} {
				buf := make([]float32, sz)
				for i := range buf {
					buf[i] = float32(rk.ID() + i)
				}
				must(rk.AllReduce(g, buf))
				must(rk.Barrier(g))
			}
		})
		if got := f.PooledBytes(); got > maxPoolFloats*4 {
			t.Fatalf("cycle %d: fabric retains %d bytes, bound is %d", cyc, got, maxPoolFloats*4)
		}
	}
}

func TestBufferPoolCapacityReuse(t *testing.T) {
	// Nearly-equal sizes must share buffers (power-of-two classes), not
	// each pin their own: after cycling sizes 1000..1007 the pool holds at
	// most one 1024-class buffer, where the old exact-size map kept eight.
	p := &parallel.ClassPool[float32]{Max: maxPoolFloats}
	for sz := 1000; sz < 1008; sz++ {
		b := p.Get(sz)
		if len(b) != sz {
			t.Fatalf("Get(%d) returned len %d", sz, len(b))
		}
		p.Put(b)
	}
	if got := p.Retained(); got != 1024 {
		t.Fatalf("pool retains %d floats after same-class cycling, want 1024", got)
	}
	// And the retained buffer satisfies any size in its class without
	// allocating a new one.
	b := p.Get(1024)
	if got := p.Retained(); got != 0 {
		t.Fatalf("pool retains %d floats after Get, want 0", got)
	}
	p.Put(b)
}
