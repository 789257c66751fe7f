// Package samo is the public API of the SAMO reproduction — Sparsity-aware
// Memory Optimization for large-model training (Singh & Bhatele, IPDPS 2023).
//
// The workflow mirrors the paper:
//
//  1. Build a model (package nn via the re-exported builders, or any stack
//     of nn.Layer values).
//  2. Prune it — Magnitude, Random or the Early-Bird algorithm the paper
//     uses — obtaining per-layer index sets of surviving parameters.
//  3. Create a State in ModeSAMO: θ16 stays dense for fast kernels, every
//     other model-state tensor is stored compressed on a shared linearized
//     index.
//  4. Train — serially with Trainer, or with the hybrid data + inter-layer
//     parallel engine (Train), which also compresses the data-parallel
//     gradient all-reduce.
//
// The companion Summit performance simulator (Estimate, PlanDevices) answers
// "what would this buy me at N GPUs" with the paper's calibrated hardware
// model, and package-level memory functions expose the §III-D closed forms.
//
// # Compute substrate
//
// Every CPU kernel — the blocked GEMM micro-kernels behind MatMul and its
// transposed variants, im2col, fp16 conversion, and the sparse
// compress/expand and SpMM/SDDMM paths — executes on one persistent,
// process-wide worker pool (internal/parallel) rather than spawning
// goroutines per call. SetWorkers bounds the per-call fan-out atomically
// and is safe to call mid-run; the pool itself is sized at GOMAXPROCS once.
//
// The dense GEMM family — the kernels the paper's dense-compute argument
// rests on — runs one fixed blocking per product. The forward product
// reads B in place with a 4-row register micro-kernel: at the workloads'
// shapes a packed panel would be swept too few times for the pack to pay.
// The transposed backward products MatMulT (C = A·Bᵀ, input gradient) and
// TMatMul (C = Aᵀ·B, weight gradient) run a BLIS-style shared pack: each
// panel of the effective B is packed once per call by the workers
// cooperatively, then swept by all of them. MatMulT packs 8-wide k-major
// column strips swept with eight register accumulators per C row; TMatMul
// packs row-major panels against a transpose-packed A block. Every path
// accumulates each C element in the same pairwise k order, so the result
// is a pure function of the operands and the shape, bitwise-identical at
// every worker count.
//
// On amd64 the micro-kernels' 8-aligned column blocks and the transposed
// SpMM run AVX2 assembly, selected once at startup from CPUID. The
// assembly uses separate multiplies and adds (no FMA, no AVX-512) in the
// portable Go kernels' per-element order, so on amd64 results are
// bitwise-identical with or without AVX2, and the Go compiler never fuses
// x*y+z there either. The bitwise contract is per GOARCH: other
// architectures run the portable kernels, where Go may fuse x*y+z into one
// rounding (arm64 does), so their results can differ from amd64's in the
// last bit. The bitwise goldens are asserted on amd64 (where CI runs
// them); they claim nothing about an arm64 run reproducing an amd64 one.
//
// The conv backward lowering (Col2Im), previously the last serial kernel
// in the stack, runs as a parallel gather over disjoint (image, input-row)
// strips: each worker visits the contributions to its rows in the serial
// scatter's exact per-element order, so the result is bitwise-identical to
// the serial reference at every worker count — resizing the pool can never
// change training results (pinned by the col2im determinism goldens and
// the FuzzCol2ImAdjoint fuzz target).
//
// # Sparse execution
//
// Pruned fully connected layers can exploit their sparsity during
// training, not just in storage: Sparsify replaces pruned Linear layers
// with first-class sparse layers (nn.SparseLinear) whose weights live in
// CSR. The forward pass is a transposed-CSR SpMM (y = x·Wᵀ against the
// (out,in) pattern), the input gradient is the same kernel against a
// cached transpose whose values refresh through a precomputed permutation,
// and the weight gradient is SDDMM sampled at the surviving pattern —
// gradient entries for pruned weights are never materialized, so the whole
// model state (capture, all-reduce, optimizer, and under sparse execution
// θ16 itself) is sized fφ. Every sparse kernel gives each output element a
// single owning worker and a fixed accumulation order, so results are
// bitwise-identical at every worker count, matching the GEMM/Col2Im
// contract (pinned by determinism goldens and the FuzzSpMMInto/
// FuzzSpMMTInto/FuzzSDDMMInto targets).
//
// Because sparse kernels only win above a density-dependent threshold, the
// input gradient follows a fixed sparse/dense crossover rule of the layer's
// density: a layer keeping more than half its weights expands them into
// arena scratch on each backward and runs the dense GEMM, where it is
// faster; every other product runs the CSR kernels. The rule is a pure
// function of (nnz, dense size), measured once on the AVX2 kernels and
// recorded in CHANGES.md, so Sparsify'd training and serving are bitwise
// reproducible from run to run, from process to process and across amd64
// machines. scripts/bench.sh gates the ≥90%-sparsity points of the
// BenchmarkSpMM matrix at MIN_SPMM_SPEEDUP.
//
// # Serving
//
// The training stack has a forward-only twin for inference. Every layer's
// eval forward is contractually cache-free, and Model.Infer /
// Model.InferWindowed run it against arenas sized to the forward working
// set — the windowed runner ping-pongs activations between two arenas so
// peak residency is one layer's input plus its output, at 0 allocs/op in
// steady state. InferenceState is the state-side counterpart: it holds
// fp16-grid resident weights only — no gradients, no master θ32 copies, no
// optimizer moments, no reduce buffers — so its Memory() ledger is the 2φ
// θ16 line alone (InferenceBreakdown), while sharing ModelState's
// fingerprint, so a training checkpoint loads straight into inference mode
// through internal/ckpt with tag, fingerprint and CRC verification (and
// its Load is transactional like ModelState's). Inferencer owns the two
// arenas for a single-goroutine serving loop.
//
// cmd/samo-serve puts it behind dynamic micro-batching (internal/serve):
// concurrent single-sample requests gather into padded power-of-two
// batches, a bounded admission queue converts overload into immediate
// backpressure (ErrOverloaded), and Close drains gracefully. The engine's
// determinism contract is batch-composition independence — under the
// default fixed-bucket padding a response's bits depend only on the
// sample, never on the traffic sharing its batch — and its load-test
// harness records p50/p99 latency and throughput to BENCH_serving.json.
//
// # Fault tolerance
//
// The parallel engine treats rank failure as a tested scenario, not an
// exception. The communication fabric carries a poison/abort model: when a
// rank fails (an injected FaultPlan in tests, an engine-detected error, or
// the configurable collective deadline tripping on a stalled peer), the
// fabric is poisoned once and every blocking primitive unwinds promptly
// with a typed RankFailedError or DeadlineError instead of deadlocking.
// Fault injection is deterministic — crash points are keyed to engine
// steps and per-rank collective entry counts, message drop/delay schedules
// to fixed counters — so every failure scenario replays identically.
//
// Checkpointing is crash-consistent (internal/ckpt): each pipeline stage's
// model state is saved through temp-file+fsync+rename with a JSON manifest
// carrying the step, a structural fingerprint and the data CRC, verified
// by read-back; a step is durable only when every stage's shard verifies,
// and a corrupt latest checkpoint falls back to the previous one with a
// surfaced warning. On a fabric abort, Train tears the fabric down
// (draining its pooled buffers), rebuilds ranks, reloads the newest
// durable checkpoint and replays the remaining batches — the recovered
// run's losses and θ32 are bitwise-identical to an uninterrupted run
// (pinned by crash-at-every-step goldens under -race). ParallelConfig
// wires it up: CheckpointDir/Every/Keep, Resume, CollectiveDeadline,
// MaxRestarts and the test-only Fault plan.
//
// # Transport
//
// The fabric is split from the wire: Fabric owns the failure domain and the
// collective algorithms (ring all-reduce, ordered reduce, broadcast,
// barrier), while a pluggable Transport moves the bytes. The default is the
// in-process channel mesh (goroutine ranks, zero-copy pooled buffers); the
// TCP transport (internal/comm/tcp) runs the same fabric across OS
// processes, each hosting a contiguous block of ranks. Frames are
// length-prefixed with a one-byte kind (p2p data, collective chunk, poison),
// floats cross the wire bit-preserved, and wire buffers recycle through
// power-of-two capacity classes so steady-state sends are allocation-free.
// Connection errors map onto the same poison path as local failures — a dead
// peer surfaces as RankFailedError, a stalled socket trips the
// CollectiveDeadline backstop as DeadlineError — so a killed peer process is
// just another recoverable abort: the survivor rebuilds the mesh (waiting up
// to the dial timeout for the peer to be restarted) and resumes from the
// newest durable checkpoint. A conformance suite pins collectives
// bitwise-identical across transports, so a multi-process run reproduces the
// single-process run exactly. Select it with ParallelConfig.Net
// (NetConfig{Peers, Proc, DialTimeout}) or samo-train's
// -transport tcp -peers host:port,host:port -proc N flags.
//
// # Overlapped communication
//
// The data-parallel gradient all-reduce can run BEHIND the backward pass
// instead of as a barrier after it. Gradients are laid out in size-bounded
// buckets packed in backward order (core.ReduceBuckets): each parameter's
// ∇θ16 aliases a segment of exactly one contiguous slab, so gradient
// capture writes straight into the reduce payload, and the engine —
// via a per-layer completion hook on the backward pass — launches bucket
// i's all-reduce on an async lane (comm.AllReduceAsync and a per-rank
// serial worker goroutine) the moment the final microbatch's backward
// crosses the bucket's lowest layer, while earlier layers are still
// computing. The engine drains every in-flight handle before the
// end-of-batch consensus, so the fabric's FIFO matching and fault
// protocol are untouched.
//
// The determinism contract survives: the bucket plan is a pure function
// of model structure and the size bound, both the overlapped and the
// serial path consume the identical plan-ordered buffer list, and the
// async lane executes launches serially in order — so overlap-on vs
// overlap-off is bitwise-identical, at every worker count, on both
// transports, under fault injection (pinned by a worker-sweep suite and a
// crash-mid-overlapped-reduce recovery golden). Enable it with
// ParallelConfig.OverlapReduce (samo-train -overlap); per-collective
// exposed wall time — full duration for synchronous calls, only the
// un-hidden blocking tail for overlapped ones — is tracked per rank and
// surfaced via the fabric's stats and samo-train's final report, and
// scripts/bench.sh records the serial-vs-overlapped step-time matrix in
// BENCH_comm.json (overlap_step_speedup; the simulator's overlap-aware
// cost model, simulate.RunWithOptions, is validated against it).
//
// # Pruning schedules
//
// Besides one-shot pruning before training, the sparsity can be reached
// GRADUALLY during training with Zhu & Gupta's cubic schedule
// (PruneSchedule): starting from an initial sparsity, prune events every
// Frequency steps between BeginStep and EndStep remove the
// smallest-magnitude surviving weights — per layer or by global ranking —
// until the final sparsity is reached, letting the network adapt between
// events. The defining property of the implementation is that every event
// shrinks the existing storage IN PLACE: CSR patterns and their cached
// transposes, the compressed θ32/∇θ32 vectors, optimizer moments and the
// bucketed all-reduce slabs all compact leftward inside their original
// backing arrays, so NNZ only ever decreases, memory and communication
// volume ratchet down with the schedule, and training between events stays
// allocation-free. Selection reads the θ32 master weights after the global
// overflow consensus, where every data-parallel replica is
// bitwise-identical — so all replicas (and the masked-dense reference
// mode) shrink to the exact same pattern with no extra communication, at
// any worker count, on either transport, with overlap on or off.
// Checkpoints carry their pattern: one written after an event loads only
// into states whose pattern it is a subset of (shrinking them on load),
// and crash recovery around a prune event is bitwise-identical to an
// uninterrupted run. Drive it with NewGradualPruner (single-process,
// call MaybePrune after each trainer step) or ParallelConfig.PruneSchedule
// (samo-train's -prune-* flags); examples/scaling_study -mode schedule
// sweeps schedules into an accuracy-proxy vs speedup frontier.
//
// Steady-state training steps are allocation-free across every model
// family — MLP, CNN (im2col conv, batch norm, pooling, residual blocks)
// and GPT (embedding, attention, layer norm, GELU MLP) — as are the fp16
// compress/expand primitives: each trainer or simulated rank owns a
// size-keyed tensor arena that supplies activations, gradients and
// scratch buffers and reclaims them wholesale after the optimizer step;
// layer caches and kernel job descriptors recycle through typed pools,
// and the in-process collectives hand pooled chunk buffers from sender to
// receiver zero-copy (pooled per fabric, in power-of-two capacity classes
// under a hard retention bound). Run scripts/bench.sh to regenerate
// BENCH_kernels.json, the kernel/throughput/allocation baseline the
// benchmarks are tracked against; it fails if the packed or shared-pack
// kernel regresses below 1.5x the seed GEMM on the Figure-1 shapes, or if
// the parallel Col2Im drops below 1.5x the serial scatter on the conv
// backward shapes (on multi-core machines; see MIN_COL2IM_SPEEDUP).
package samo

import (
	"io"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/experiments"
	"github.com/sparse-dl/samo/internal/hw"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/simulate"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Re-exported core types. The aliases make the public surface explicit
// while the implementations live in focused internal packages.
type (
	// Tensor is a dense row-major float32 tensor.
	Tensor = tensor.Tensor
	// RNG is the deterministic generator used for initialization and data.
	RNG = tensor.RNG
	// Model is an ordered stack of layers.
	Model = nn.Model
	// Layer is a differentiable module with explicit forward/backward.
	Layer = nn.Layer
	// PruneResult holds per-layer indices of surviving parameters.
	PruneResult = prune.Result
	// PruneSchedule is a gradual magnitude-pruning schedule (Zhu & Gupta's
	// cubic sparsity ramp) driven during training.
	PruneSchedule = prune.Schedule
	// GradualPruner applies a PruneSchedule to a live State with in-place
	// pattern shrinkage.
	GradualPruner = core.GradualPruner
	// State manages mixed-precision model states, dense or SAMO-compressed.
	State = core.ModelState
	// Trainer drives single-process training through a State.
	Trainer = core.Trainer
	// Mode selects dense or SAMO storage.
	Mode = core.Mode
	// Optimizer is the parameter-update strategy.
	Optimizer = optim.Optimizer
	// Batch is one training batch for the parallel engine.
	Batch = axonn.Batch
	// ParallelConfig describes the Ginter × Gdata hybrid layout.
	ParallelConfig = axonn.Config
	// ParallelResult aggregates a parallel training run.
	ParallelResult = axonn.Result
	// NetConfig selects the TCP transport for multi-process training:
	// Peers lists every process's listen address, Proc is this process's
	// index, and ranks split into contiguous blocks across processes.
	NetConfig = axonn.NetConfig
	// FaultPlan injects deterministic failures into the fabric (tests/chaos).
	FaultPlan = comm.FaultPlan
	// RankFailedError is the typed abort every blocked primitive unwinds
	// with after a rank fails.
	RankFailedError = comm.RankFailedError
	// DeadlineError reports a collective exceeding CollectiveDeadline.
	DeadlineError = comm.DeadlineError
	// Machine is a cluster hardware profile for the simulator.
	Machine = hw.Machine
	// Estimate is one simulated (framework, model, GPU-count) outcome.
	Estimate = simulate.Result
	// MemoryBreakdown itemizes model-state bytes by component.
	MemoryBreakdown = core.MemoryBreakdown
	// InferenceState holds forward-only resident weights (θ16 grid, no
	// gradients or optimizer state) and loads training checkpoints.
	InferenceState = core.InferenceState
	// Inferencer runs cache-free forwards over an InferenceState at
	// 0 allocs/op (single goroutine; serve.Engine adds micro-batching).
	Inferencer = core.Inferencer
)

// Storage modes.
const (
	// ModeDense is ordinary mixed-precision training.
	ModeDense = core.Dense
	// ModeSAMO compresses θ32, ∇θ16, ∇θ32 and optimizer states to the
	// unpruned coordinates (the paper's contribution).
	ModeSAMO = core.SAMO
)

// NewRNG returns a deterministic generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// SetWorkers bounds the kernel worker pool's per-call parallelism (n < 1
// resets to GOMAXPROCS) and returns the previous bound. Safe to call while
// training runs on other goroutines; results do not depend on the worker
// count (work partitioning is static and reductions are single-owner).
func SetWorkers(n int) int { return tensor.SetWorkers(n) }

// NewTensor returns a zero-filled tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// FillNormal fills t with N(0, std²) values from rng.
func FillNormal(t *Tensor, std float64, rng *RNG) { tensor.FillNormal(t, std, rng) }

// --- Model builders ---------------------------------------------------------

// NewMLP builds a multi-layer perceptron with the given layer widths.
func NewMLP(name string, dims []int, rng *RNG) *Model { return nn.BuildMLP(name, dims, rng) }

// NewGPT builds a GPT-style decoder from a config (see GPTConfig).
func NewGPT(cfg GPTConfig, rng *RNG) *Model { return nn.BuildGPT(cfg, rng) }

// GPTConfig describes a GPT-family model.
type GPTConfig = nn.GPTConfig

// The paper's Table I transformer configurations (for accounting and
// simulation; build tiny variants for in-process training).
var (
	GPT3XL   = nn.GPT3XL
	GPT3o2B7 = nn.GPT3_2B7
	GPT3o6B7 = nn.GPT3_6B7
	GPT3o13B = nn.GPT3_13B
)

// NewVGG builds a VGG-style CNN (see nn.BuildVGG for the plan format).
func NewVGG(name string, plan []int, inC, dim, classes int, rng *RNG) *Model {
	return nn.BuildVGG(name, plan, inC, dim, classes, rng)
}

// NewWideResNet builds a WideResNet-style CNN with n blocks per group and
// width multiplier k.
func NewWideResNet(name string, n, k, inC, dim, classes int, rng *RNG) *Model {
	return nn.BuildWideResNet(name, n, k, inC, dim, classes, rng)
}

// --- Pruning ----------------------------------------------------------------

// PruneMagnitude prunes each prunable layer to the target sparsity by
// per-layer magnitude (the uniform pruning the paper's memory model assumes).
func PruneMagnitude(m *Model, sparsity float64) *PruneResult {
	return prune.MagnitudePerLayer(pruneLayers(m), sparsity)
}

// PruneMagnitudeGlobal prunes by global magnitude ranking.
func PruneMagnitudeGlobal(m *Model, sparsity float64) *PruneResult {
	return prune.MagnitudeGlobal(pruneLayers(m), sparsity)
}

// PruneRandom prunes a random subset (control baseline).
func PruneRandom(m *Model, sparsity float64, seed uint64) *PruneResult {
	return prune.Random(pruneLayers(m), sparsity, seed)
}

// NewGradualPruner binds a gradual magnitude-pruning schedule to a live
// training state (see the package's "Pruning schedules" section). Call
// MaybePrune(step) after every trainer step; on schedule events it shrinks
// the state's sparse patterns — and every dependent storage layer — in
// place, on other steps it is a free no-op. The parallel engine drives the
// same machinery via ParallelConfig.PruneSchedule.
func NewGradualPruner(s *State, sched PruneSchedule) (*GradualPruner, error) {
	return core.NewGradualPruner(s, sched)
}

// Sparsify replaces every pruned Linear layer of a model with a
// first-class sparse-execution layer (nn.SparseLinear): CSR weights, SpMM
// forward, SDDMM weight gradient restricted to the surviving pattern, and
// the fixed density-aware crossover rule that computes the input gradient
// of a layer keeping more than half its weights with a dense GEMM over the
// weight expanded per backward, where sparse kernels would lose.
// Unconverted layers are shared with the original model — train one model
// or the other, not both.
func Sparsify(m *Model, pr *PruneResult) *Model { return nn.Sparsify(m, pr) }

// EarlyBird is the convergence-tested pruning algorithm the paper uses
// (You et al., ICLR 2020). Call Observe(model) after each training epoch;
// when it returns true, Ticket() holds the pruning result.
type EarlyBird struct{ eb *prune.EarlyBird }

// NewEarlyBird returns an Early-Bird tracker at the target sparsity.
func NewEarlyBird(sparsity float64) *EarlyBird {
	return &EarlyBird{eb: prune.NewEarlyBird(sparsity)}
}

// Observe records the current mask; true means the ticket has converged.
func (e *EarlyBird) Observe(m *Model) bool { return e.eb.Observe(pruneLayers(m)) }

// Ticket returns the converged pruning result (nil before convergence).
func (e *EarlyBird) Ticket() *PruneResult { return e.eb.Ticket() }

// Force draws the ticket immediately from the current parameters.
func (e *EarlyBird) Force(m *Model) *PruneResult { return e.eb.Force(pruneLayers(m)) }

func pruneLayers(m *Model) []prune.Layer {
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return layers
}

// --- Training ---------------------------------------------------------------

// NewState wraps a model's mixed-precision states. pr may be nil in
// ModeDense; ModeSAMO requires a pruning result.
func NewState(m *Model, opt Optimizer, mode Mode, pr *PruneResult) *State {
	return core.NewModelState(m, opt, mode, pr)
}

// NewTrainer returns a single-process trainer over a state.
func NewTrainer(s *State) *Trainer { return core.NewTrainer(s) }

// NewInferenceState wraps a model for forward-only serving: weights are
// masked and snapped to the fp16 grid, gradient tensors are released, and
// no optimizer state or reduce buffers ever exist — Memory() is the 2φ θ16
// line alone. It shares NewState's fingerprint for the same (model,
// optimizer, mode, pruning) identity, so a training checkpoint saved with
// SaveState (or internal/ckpt) loads directly via its Load; Save refuses.
func NewInferenceState(m *Model, opt Optimizer, mode Mode, pr *PruneResult) *InferenceState {
	return core.NewInferenceState(m, opt, mode, pr)
}

// NewInferencer returns a forward-only runner over an inference state:
// Forward(x) is bitwise-identical to the model's eval forward and performs
// zero heap allocations in steady state. Not concurrency-safe — wrap it in
// internal/serve's engine (cmd/samo-serve) for concurrent callers.
func NewInferencer(s *InferenceState) *Inferencer { return core.NewInferencer(s) }

// SaveState writes a checkpoint of the full training state (compressed θ32,
// optimizer moments, loss-scaler) to w — SAMO checkpoints shrink with the
// same (24p−6)φ arithmetic as resident memory. It returns the byte count.
func SaveState(w io.Writer, s *State) (int64, error) { return s.Save(w) }

// LoadState restores a checkpoint into a structurally matching State;
// resumed training is bitwise identical to uninterrupted training.
func LoadState(r io.Reader, s *State) error { return s.Load(r) }

// NewAdam, NewAdamW and NewSGD construct the optimizers used in the paper.
func NewAdam(lr float64) Optimizer { return optim.NewAdam(lr) }

// NewAdamW returns decoupled-weight-decay Adam (GPT recipe).
func NewAdamW(lr, weightDecay float64) Optimizer { return optim.NewAdamW(lr, weightDecay) }

// NewSGD returns SGD with momentum and L2 weight decay (CNN recipe).
func NewSGD(lr, momentum, weightDecay float64) Optimizer {
	return optim.NewSGD(lr, momentum, weightDecay)
}

// Train runs hybrid data + inter-layer parallel training on an in-process
// fabric: cfg.Ginter pipeline stages × cfg.Gdata data-parallel replicas,
// one goroutine per simulated GPU. build must return identically
// initialized models (fixed seed); optb builds one optimizer per rank.
func Train(cfg ParallelConfig, build func() *Model, optb func() Optimizer, pr *PruneResult, batches []Batch) ParallelResult {
	return axonn.Train(cfg, build, optb, pr, batches)
}

// --- Memory model (§III-D) --------------------------------------------------

// DefaultModelStateBytes returns M_default = 20φ.
func DefaultModelStateBytes(params int64) int64 { return core.DefaultModelStateBytes(params) }

// SAMOModelStateBytes returns M_SAMO = 24(1−p)φ + 2φ.
func SAMOModelStateBytes(params int64, sparsity float64) int64 {
	return core.SAMOModelStateBytes(params, sparsity)
}

// InferenceModelStateBytes returns the forward-only resident footprint:
// the 2φ θ16 line alone (no gradients, master copies or optimizer states).
func InferenceModelStateBytes(params int64) int64 { return core.InferenceBreakdown(params).Total() }

// MemorySavingsPercent returns the relative saving 100·(24p−6)/20.
func MemorySavingsPercent(sparsity float64) float64 { return core.SavingsPercent(sparsity) }

// BreakEvenSparsity is the sparsity below which SAMO costs memory (0.25).
const BreakEvenSparsity = core.BreakEvenSparsity

// --- Performance estimation (Summit simulator) ------------------------------

// Summit returns the paper's testbed profile.
func Summit() Machine { return hw.Summit() }

// EstimateGPT simulates one training iteration of a Table I GPT config on
// the machine at the given GPU count. samoEnabled selects AxoNN+SAMO versus
// plain AxoNN; sparsity is the pruned fraction.
func EstimateGPT(cfg GPTConfig, m Machine, gpus int, samoEnabled bool, sparsity float64) Estimate {
	method := simulate.MethodAxoNN
	if samoEnabled {
		method = simulate.MethodSAMO
	}
	return simulate.Run(method, simulate.TransformerJob(cfg), m, gpus, sparsity)
}

// RunExperiment regenerates one of the paper's tables or figures into w.
// Valid names: fig1..fig8, table1, table2, memory.
func RunExperiment(name string, w io.Writer, trainIters int) bool {
	switch name {
	case "fig1":
		experiments.Figure1(w)
	case "fig2":
		experiments.Figure2(w)
	case "fig3":
		experiments.Figure3(w)
	case "fig4":
		experiments.Figure4(w, trainIters)
	case "fig5":
		experiments.Figure5(w)
	case "fig6":
		experiments.Figure6(w)
	case "fig7":
		experiments.Figure7(w)
	case "fig8":
		experiments.Figure8(w)
	case "table1":
		experiments.Table1(w)
	case "table2":
		experiments.Table2(w)
	case "memory":
		experiments.MemoryReport(w)
	case "sweep":
		experiments.SparsitySweep(w)
	case "sparseexec":
		experiments.SparseExec(w)
	default:
		return false
	}
	return true
}

// ExperimentNames lists the experiments RunExperiment accepts: the paper's
// figures and tables in order, then the extension studies.
func ExperimentNames() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2", "memory", "sweep", "sparseexec"}
}
