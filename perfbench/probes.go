package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/comm/tcp"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Probes time single layers directly, at a workload's shapes, in the traced
// run only.

// matmulProbes times the dominant product of a training microbatch and of
// a served batch: benchGPT's MLP up-projection at each one's row count.
func matmulProbes(rep *report) {
	for _, p := range []struct {
		name string
		rows int
	}{
		{"tensor.matmul_gflops.train", hybridSAMOLocal.cfg.Microbatch * benchGPT.Seq},
		{"tensor.matmul_gflops.serve", serveMaxBatch * benchGPT.Seq},
	} {
		gflops, ops := matmulGFLOPS(p.rows, benchGPT.Hidden, 4*benchGPT.Hidden, 300*time.Millisecond)
		rep.set(p.name, gflops, ops)
	}
}

// matmulGFLOPS times tensor.MatMulInto at (m,k) × (k,n) for about d and
// returns the median rate of five slices of it, with the product count.
func matmulGFLOPS(m, k, n int, d time.Duration) (float64, int) {
	rng := tensor.NewRNG(uint64(m*k*n) + 7)
	a, b, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	tensor.FillNormal(a, 1, rng)
	tensor.FillNormal(b, 1, rng)
	for i := 0; i < 64; i++ { // the autotuner freezes this shape's bucket
		tensor.MatMulInto(c, a, b, false)
	}
	flops := 2 * float64(m*k*n)
	var rates []float64
	ops := 0
	for s := 0; s < 5; s++ {
		t0 := time.Now()
		i := 0
		for ; time.Since(t0) < d/5; i++ {
			tensor.MatMulInto(c, a, b, false)
		}
		rates = append(rates, flops*float64(i)/time.Since(t0).Seconds()/1e9)
		ops += i
	}
	return median(rates), ops
}

// tcpProbe times an all-reduce of elems float32s and a small
// send-and-receive over a two-endpoint loopback TCP fabric.
func tcpProbe(rep *report, elems int) error {
	trs, err := tcp.Loopback(2)
	if err != nil {
		return err
	}
	fabrics := [2]*comm.Fabric{comm.NewFabricOver(trs[0]), comm.NewFabricOver(trs[1])}
	defer func() {
		for _, f := range fabrics {
			f.Close()
		}
	}()
	group := []int{0, 1}
	const reduces, pings = 40, 400
	times := make([]float64, reduces)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range fabrics {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rk := fabrics[r].Rank(r)
			buf := make([]float32, elems)
			for i := 0; i < reduces; i++ {
				for j := range buf {
					buf[j] = float32(j%7) * 0.5
				}
				t0 := time.Now()
				if err := rk.AllReduce(group, buf); err != nil {
					errs[r] = err
					return
				}
				if r == 0 {
					times[i] = ms(time.Since(t0))
				}
			}
			// Ping-pong: rank 0 sends, rank 1 echoes.
			var rtt time.Duration
			for i := 0; i < pings; i++ {
				t0 := time.Now()
				if r == 0 {
					if err := rk.Send(1, comm.TagActivation, i, make([]float32, 64), 64); err != nil {
						errs[r] = err
						return
					}
				}
				msg, err := rk.Recv()
				if err != nil {
					errs[r] = err
					return
				}
				if r == 1 {
					if err := rk.Send(0, comm.TagGradient, i, msg.Data, 64); err != nil {
						errs[r] = err
						return
					}
				}
				rtt += time.Since(t0)
			}
			if r == 0 {
				rep.set("tcp.sendrecv_us", float64(rtt.Microseconds())/pings/2, pings)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
	}
	rep.set("tcp.allreduce_ms", median(times[reduces/4:]), reduces-reduces/4)
	return nil
}

// ckptProbe times ckpt.Manager.Save of the workload's one-shard state.
func ckptProbe(rep *report, in trainInputs, mode core.Mode) error {
	dir, err := os.MkdirTemp("", "perfbench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := core.NewModelState(in.build(), newOptimizer(), mode, nil)
	mgr, err := ckpt.New(ckpt.Options{Dir: dir, Shards: 1, Tag: "perfbench"})
	if err != nil {
		return err
	}
	const saves = 10
	var times []float64
	for step := 1; step <= saves; step++ {
		t0 := time.Now()
		if err := mgr.Save(step, 0, st); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t0)))
		if err := mgr.Prune(); err != nil {
			return err
		}
	}
	size, err := st.Save(io.Discard)
	if err != nil {
		return err
	}
	rep.set("ckpt.save_ms", median(times), saves)
	rep.set("ckpt.bytes", float64(size), 1)
	return nil
}

// pruneProbe runs the workload's schedule on a whole-model state: it times
// each core.GradualPruner.MaybePrune event, and reports the state's gradient
// elements averaged over the measured batches and its final size.
func (w trainWorkload) pruneProbe(rep *report, in trainInputs, pr *prune.Result, n int) error {
	sched := w.schedule(n)
	st := core.NewModelState(in.build(), newOptimizer(), w.cfg.Mode, pr)
	gp, err := core.NewGradualPruner(st, *sched)
	if err != nil {
		return err
	}
	// The engine prunes after training batch b, so batch b still computes
	// at the sparsity before the event.
	var times []float64
	var elemSteps float64
	for b := warmBatches; b < warmBatches+n; b++ {
		elemSteps += float64(st.GradElements())
		if sched.IsPruneEvent(b) {
			t0 := time.Now()
			gp.MaybePrune(b)
			times = append(times, ms(time.Since(t0)))
		}
	}
	if len(times) == 0 {
		return fmt.Errorf("prune probe: no event in %d batches", n)
	}
	sort.Float64s(times)
	rep.set("prune.events", float64(len(times)), len(times))
	rep.set("prune.event_ms", times[len(times)-1], len(times))
	rep.set("core.grad_elements_per_step", elemSteps/float64(n), n)
	rep.set("core.state_bytes", float64(st.Memory().Total()), 1)
	return nil
}
