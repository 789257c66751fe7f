package axonn

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Gradual-pruning determinism suite. The contract: a prune.Schedule is pure
// arithmetic over (step, θ32), and θ32 is bitwise-identical on every replica
// after the overflow consensus — so the same schedule produces identical
// events, identical survivors and identical losses at every worker count,
// on both transports, with the overlapped reducer on or off, and recovers
// bitwise from a crash landing exactly on a prune event.

// gradualSchedule fires events at steps 1, 3 and 5 of a 6-batch run,
// ramping 0.3 → 0.8.
func gradualSchedule() *prune.Schedule {
	return &prune.Schedule{Initial: 0.3, Final: 0.8, BeginStep: 1, EndStep: 5, Frequency: 2}
}

// TestGradualPruneOverlapBitwiseWorkerSweep pins overlap-on ≡ overlap-off
// under an active pruning schedule at every acceptance worker count: the
// in-place shrinks re-head the bucket slabs both reducers consume.
func TestGradualPruneOverlapBitwiseWorkerSweep(t *testing.T) {
	pr := pruneMLP(61, 0.3)
	for _, gdata := range []int{1, 2, 3, 4, 8, 16} {
		gdata := gdata
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			t.Parallel()
			// 48 samples divide evenly by every gdata in the sweep.
			batches := makeBatches(6, 48, uint64(7000+gdata))
			cfg := Config{
				Ginter: 1, Gdata: gdata, Microbatch: 1,
				Mode:              core.SAMO,
				OrderedReduce:     true,
				ReduceBucketElems: overlapBucketElems,
				PruneSchedule:     gradualSchedule(),
			}
			off := Train(cfg, mlpBuilder(61), adamBuilder(), pr, batches)
			cfg.OverlapReduce = true
			on := Train(cfg, mlpBuilder(61), adamBuilder(), pr, batches)
			assertTrainBitwise(t, fmt.Sprintf("gradual gdata=%d", gdata), off, on)
		})
	}
}

// TestGradualPruneScheduleShrinksState checks the ramp actually bites in
// the engine: the final stage state of a scheduled run serializes smaller
// than the unscheduled run's, and differs from it.
func TestGradualPruneScheduleShrinksState(t *testing.T) {
	pr := pruneMLP(63, 0.3)
	batches := makeBatches(6, 8, 7100)
	cfg := Config{
		Ginter: 1, Gdata: 2, Microbatch: 1,
		Mode: core.SAMO, OrderedReduce: true,
	}
	plain := Train(cfg, mlpBuilder(63), adamBuilder(), pr, batches)
	if plain.Err != nil {
		t.Fatalf("unscheduled run: %v", plain.Err)
	}
	cfg.PruneSchedule = gradualSchedule()
	ramped := Train(cfg, mlpBuilder(63), adamBuilder(), pr, batches)
	if ramped.Err != nil {
		t.Fatalf("scheduled run: %v", ramped.Err)
	}
	if len(ramped.StageStates[0]) >= len(plain.StageStates[0]) {
		t.Fatalf("ramped state %d bytes not smaller than unscheduled %d",
			len(ramped.StageStates[0]), len(plain.StageStates[0]))
	}
}

// TestGradualPruneOverTCPBitwise drives the schedule with every collective
// crossing a real TCP wire and requires bitwise identity with the local
// golden at worker counts 2 and 4 — prune events sequence after the
// transport-independent overflow consensus, so the wire cannot reorder them.
func TestGradualPruneOverTCPBitwise(t *testing.T) {
	pr := pruneMLP(65, 0.3)
	for _, gdata := range []int{2, 4} {
		gdata := gdata
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			cfg := Config{
				Ginter: 1, Gdata: gdata, Microbatch: 2,
				Mode:               core.SAMO,
				OrderedReduce:      true,
				ReduceBucketElems:  overlapBucketElems,
				CollectiveDeadline: 15 * time.Second,
				PruneSchedule:      gradualSchedule(),
			}
			batches := makeBatches(6, 8*gdata, uint64(7200+gdata))
			golden := Train(cfg, mlpBuilder(65), adamBuilder(), pr, batches)
			if golden.Err != nil {
				t.Fatalf("local golden: %v", golden.Err)
			}

			cfg.OverlapReduce = true
			n := cfg.GPUs()
			addrs := freeLoopbackAddrs(t, n)
			results := make([]Result, n)
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					c := cfg
					c.Net = &NetConfig{Peers: addrs, Proc: p, DialTimeout: 30 * time.Second}
					results[p] = Train(c, mlpBuilder(65), adamBuilder(), pr, batches)
				}(p)
			}
			wg.Wait()
			for p := range results {
				if results[p].Err != nil {
					t.Fatalf("proc %d: %v", p, results[p].Err)
				}
				if results[p].Fabric != nil {
					defer results[p].Fabric.Close()
				}
			}
			loss := results[0]
			for i := range golden.Losses {
				if math.Float64bits(loss.Losses[i]) != math.Float64bits(golden.Losses[i]) {
					t.Fatalf("loss[%d] = %x over tcp, golden %x", i,
						math.Float64bits(loss.Losses[i]), math.Float64bits(golden.Losses[i]))
				}
			}
			if !bytes.Equal(results[0].StageStates[0], golden.StageStates[0]) {
				t.Fatal("stage 0 state differs between tcp and local under the schedule")
			}
		})
	}
}

// sparseMLPBuilder builds the test MLP with its Linears replaced by
// first-class SparseLinear layers, so the engine's prune events exercise
// the in-place CSR pattern shrink.
func sparseMLPBuilder(seed uint64, sparsity float64) Builder {
	return func() *nn.Model {
		m := nn.BuildMLP("mlp", []int{inDim, 10, 8, classes}, tensor.NewRNG(seed))
		var layers []prune.Layer
		for _, e := range m.PruneLayers() {
			layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
		}
		pr := prune.MagnitudePerLayer(layers, sparsity)
		return nn.Sparsify(m, pr)
	}
}

// TestGradualPruneSparseLayersBitwise runs the ramp over SparseLinear
// pattern layers — CSR shrink, cached-transpose refresh, bucket compaction
// of the rank-1 weight vectors — and pins overlap-on ≡ overlap-off.
func TestGradualPruneSparseLayersBitwise(t *testing.T) {
	pr := pruneMLP(67, 0.3)
	batches := makeBatches(6, 16, 7300)
	cfg := Config{
		Ginter: 1, Gdata: 2, Microbatch: 1,
		Mode:              core.SAMO,
		OrderedReduce:     true,
		ReduceBucketElems: overlapBucketElems,
		PruneSchedule:     gradualSchedule(),
	}
	off := Train(cfg, sparseMLPBuilder(67, 0.3), adamBuilder(), pr, batches)
	cfg.OverlapReduce = true
	on := Train(cfg, sparseMLPBuilder(67, 0.3), adamBuilder(), pr, batches)
	assertTrainBitwise(t, "sparse-layer gradual", off, on)
}

// TestCrashAtPruneEventRecoversBitwise is the recovery golden the schedule
// adds to the chaos suite: a rank crash landing exactly ON a prune-event
// batch resumes from the checkpoint written BEFORE the shrink (replaying
// the event), and a crash one batch later resumes from the post-shrink
// checkpoint (shrinking the rebuilt state on load). Both must land bitwise
// on the uninterrupted golden.
func TestCrashAtPruneEventRecoversBitwise(t *testing.T) {
	pr := pruneMLP(69, 0.3)
	batches := makeBatches(6, 8, 7400)
	gradualChaosCfg := func(dir string) Config {
		c := chaosCfg(dir)
		c.Mode = core.SAMO
		c.PruneSchedule = gradualSchedule()
		return c
	}
	golden := Train(gradualChaosCfg(t.TempDir()), mlpBuilder(69), adamBuilder(), pr, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	// Batch 3 is a prune event (checkpoint 3 predates its shrink; checkpoint
	// 4 follows it); batch 4 is the step after. Crash every rank position at
	// both, plus the final event at batch 5.
	for _, step := range []int{3, 4, 5} {
		step := step
		t.Run(fmt.Sprintf("crash-step-%d", step), func(t *testing.T) {
			t.Parallel()
			cfg := gradualChaosCfg(t.TempDir())
			cfg.Fault = &comm.FaultPlan{CrashAtStep: map[int]int{step % cfg.GPUs(): step}}
			res := Train(cfg, mlpBuilder(69), adamBuilder(), pr, batches)
			if res.Restarts != 1 {
				t.Fatalf("restarts = %d, want 1 (err: %v)", res.Restarts, res.Err)
			}
			assertBitwiseEqual(t, golden, res)
		})
	}
}

// TestGradualPruneResumeFromPreAndPostShrinkCheckpoints pins the two resume
// flavors directly, without fault injection: run A stops right after the
// event at batch 3; separate Resume=true runs restart from its newest
// checkpoint (post-shrink) and from a run stopped BEFORE the event
// (pre-shrink, replaying it), both finishing bitwise on the golden.
func TestGradualPruneResumeFromPreAndPostShrinkCheckpoints(t *testing.T) {
	pr := pruneMLP(71, 0.3)
	all := makeBatches(6, 8, 7500)
	mkCfg := func(dir string) Config {
		c := chaosCfg(dir)
		c.Mode = core.SAMO
		c.PruneSchedule = gradualSchedule()
		return c
	}
	golden := Train(mkCfg(t.TempDir()), mlpBuilder(71), adamBuilder(), pr, all)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	// stop ∈ {3, 4}: run A's newest checkpoint is written after batch
	// stop−1 — batch 3 holds the pre-shrink pattern of event 3, batch 4 the
	// post-shrink one.
	for _, stop := range []int{3, 4} {
		stop := stop
		t.Run(fmt.Sprintf("resume-from-%d", stop), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			a := Train(mkCfg(dir), mlpBuilder(71), adamBuilder(), pr, all[:stop])
			if a.Err != nil {
				t.Fatalf("run A: %v", a.Err)
			}
			cfg := mkCfg(dir)
			cfg.Resume = true
			b := Train(cfg, mlpBuilder(71), adamBuilder(), pr, all)
			if b.Err != nil {
				t.Fatalf("resumed run: %v", b.Err)
			}
			if b.StartBatch != stop {
				t.Fatalf("resumed at %d, want %d", b.StartBatch, stop)
			}
			for i := stop; i < len(all); i++ {
				if b.Losses[i] != golden.Losses[i] {
					t.Fatalf("batch %d loss %v != golden %v", i, b.Losses[i], golden.Losses[i])
				}
			}
			for s := range golden.StageStates {
				if !bytes.Equal(b.StageStates[s], golden.StageStates[s]) {
					t.Fatalf("stage %d state diverged after resume across a prune event", s)
				}
			}
		})
	}
}
