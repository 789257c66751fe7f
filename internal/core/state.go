package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/sparse-dl/samo/internal/fp16"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Mode selects how model states are stored.
type Mode int

const (
	// Dense is ordinary mixed-precision training: every state tensor dense.
	Dense Mode = iota
	// SAMO compresses θ32/∇θ16/∇θ32/os to the unpruned coordinates.
	SAMO
)

func (m Mode) String() string {
	if m == SAMO {
		return "SAMO"
	}
	return "Dense"
}

// paramState holds one parameter's model-state tensors. For a pruned
// parameter under SAMO, ix is non-nil and every vector here has length
// ix.NNZ(); otherwise vectors are dense (length = parameter size).
//
// Storage-width note: gradients and parameters that are logically fp16
// (∇θ16, θ16) hold values rounded onto the fp16 grid. Element values are
// bit-faithful to half precision (including ±Inf on overflow); the Go slices
// are float32 for kernel uniformity, and the memory ledger accounts them at
// their logical 2-byte width, exactly as MemoryBreakdown specifies.
type paramState struct {
	p *nn.Param
	// ix is non-nil whenever the parameter is pruned. compressed selects
	// SAMO storage; a pruned parameter in Dense mode keeps dense state
	// tensors but still enforces the mask on captured gradients, giving the
	// masked-dense reference SAMO must match bit for bit.
	ix         *sparse.Index
	compressed bool

	theta32 []float32 // master weights (compressed under SAMO)
	grad16  []float32 // fp16-grid scaled gradients, captured layer by layer
	grad32  []float32 // fp32 unscaled gradients (optimizer input)
	tmp16   []float32 // compressed fp16 copy for the down-cast step
}

// ModelState implements mixed-precision training state management with or
// without SAMO. It owns θ32, ∇θ16, ∇θ32 and drives the optimizer; the
// model's nn.Param.Value tensors play the role of dense θ16 (values kept on
// the fp16 grid).
type ModelState struct {
	Mode   Mode
	Scaler *optim.LossScaler
	// ClipNorm, when positive, applies global gradient-norm clipping before
	// the optimizer step (Brown et al.'s recipe uses 1.0).
	ClipNorm float64

	model   *nn.Model
	opt     optim.Optimizer
	states  []*paramState
	byParam map[*nn.Param]*paramState
	steps   int
	skipped int

	// patterns maps each pattern-bearing parameter (e.g. a SparseLinear's
	// Wv) to the layer owning its shrinkable support, discovered once at
	// construction. Gradual pruning and shrink-on-load drive the layers'
	// in-place pattern compaction through this map.
	patterns map[*nn.Param]nn.PatternLayer

	// Steady-state scratch, built once so Step/ReduceBuffers/GradHook do
	// not allocate per call.
	hook        nn.GradHook
	layerParams map[nn.Layer][]*nn.Param
	reduceBufs  [][]float32
	clipBufs    [][]float32

	// Bucketed all-reduce plan (see buckets.go). Every paramState.grad16
	// aliases a segment of exactly one bucket slab; the slabs, in backward
	// order, ARE the reduce payload. bucketMembers records each bucket's
	// member parameters in packing order — membership is FIXED at plan
	// time; a prune event compacts segments inside their slab (see
	// compactBuckets) rather than re-planning.
	buckets       []ReduceBucket
	bucketMembers [][]*paramState
	readyAt       []int // readyAt[l] = #buckets final once layer l's backward is done
}

// NewModelState builds the state manager. For SAMO mode, pr must hold the
// pruning result; its masks are applied to the parameters immediately
// (pruned weights are set to zero in the dense θ16, as the paper requires).
// For Dense mode, pr may be nil (no pruning) or non-nil (pruned-but-dense
// storage — the masked-dense reference SAMO must match numerically).
func NewModelState(model *nn.Model, opt optim.Optimizer, mode Mode, pr *prune.Result) *ModelState {
	ms := &ModelState{
		Mode:    mode,
		Scaler:  optim.NewLossScaler(),
		model:   model,
		opt:     opt,
		byParam: make(map[*nn.Param]*paramState),
	}
	if mode == SAMO && pr == nil {
		panic("core: SAMO mode requires a pruning result")
	}
	ms.patterns = make(map[*nn.Param]nn.PatternLayer)
	for _, l := range model.Layers {
		if pl, ok := l.(nn.PatternLayer); ok {
			ms.patterns[pl.PatternParam()] = pl
		}
	}
	for _, p := range model.Params() {
		st := &paramState{p: p}
		var ix *sparse.Index
		if pr != nil && nn.Prunable(p) {
			if shared := pr.Index(p.Name); shared != nil {
				// Own copy: gradual pruning shrinks it in place, and the
				// pruning result may be shared across ranks.
				ix = shared.Clone()
			}
		}
		if ix != nil {
			// Zero the pruned coordinates of dense θ16.
			ix.Mask().Apply(p.Value.Data())
		}
		// fp16-quantize the initial dense parameters (mixed-precision init).
		quantize(p.Value.Data())
		st.ix = ix
		// grad16 is not allocated here: planBuckets aliases it into the
		// bucket slabs below, so the reduce payload is contiguous per bucket.
		if mode == SAMO && ix != nil {
			st.compressed = true
			n := ix.NNZ()
			st.theta32 = make([]float32, n)
			st.grad32 = make([]float32, n)
			st.tmp16 = make([]float32, n)
			ix.Compress(st.theta32, p.Value.Data())
		} else {
			n := p.Size()
			st.theta32 = make([]float32, n)
			st.grad32 = make([]float32, n)
			copy(st.theta32, p.Value.Data())
		}
		ms.states = append(ms.states, st)
		ms.byParam[p] = st
	}
	ms.layerParams = make(map[nn.Layer][]*nn.Param)
	ms.hook = nn.GradHook{Capture: func(layer nn.Layer) {
		ps, ok := ms.layerParams[layer]
		if !ok {
			ps = layer.Params()
			ms.layerParams[layer] = ps
		}
		for _, p := range ps {
			ms.captureParam(p)
		}
	}}
	ms.clipBufs = make([][]float32, len(ms.states))
	for i, st := range ms.states {
		ms.clipBufs[i] = st.grad32
	}
	ms.planBuckets(DefaultReduceBucketElems)
	return ms
}

func quantize(data []float32) {
	for i, v := range data {
		data[i] = fp16.Round(v)
	}
}

// LossScale returns the current dynamic loss scale to multiply into the
// loss gradient before backward.
func (ms *ModelState) LossScale() float32 { return float32(ms.Scaler.Scale) }

// GradHook returns the backward-pass hook that captures (and under SAMO,
// compresses) each layer's gradients the moment that layer's backward
// finishes — §III-C's layer-granular compression. The dense accumulator is
// cleared afterwards so whole-model dense gradients never coexist. The hook
// is built once at construction (and memoizes each layer's parameter list),
// so fetching and running it allocates nothing.
func (ms *ModelState) GradHook() nn.GradHook { return ms.hook }

func (ms *ModelState) captureParam(p *nn.Param) {
	st, ok := ms.byParam[p]
	if !ok {
		panic(fmt.Sprintf("core: gradient for unregistered parameter %s", p.Name))
	}
	g := p.Grad.Data()
	switch {
	case st.compressed:
		// Compress: gather unpruned coordinates, quantizing to the fp16 grid
		// (∇θ16 is half precision). Accumulate: a pipelined schedule calls
		// the hook once per microbatch.
		for i, id := range st.ix.IDs() {
			st.grad16[i] = fp16.Round(st.grad16[i] + g[id])
		}
	case st.ix != nil:
		// Masked-dense: full-size storage, but pruned coordinates carry no
		// gradient, so they (and their optimizer states) stay exactly zero.
		for _, id := range st.ix.IDs() {
			st.grad16[id] = fp16.Round(st.grad16[id] + g[id])
		}
	default:
		for i := range g {
			st.grad16[i] = fp16.Round(st.grad16[i] + g[i])
		}
	}
	p.Grad.Zero()
}

// CaptureAll captures every parameter's gradient (the non-pipelined path,
// equivalent to running the hook over all layers).
func (ms *ModelState) CaptureAll() {
	for _, st := range ms.states {
		ms.captureParam(st.p)
	}
}

// ReduceBuffers exposes the captured fp16 gradient payload for data-parallel
// all-reduce, one buffer per size-bounded bucket in backward order (the order
// gradients become final — see planBuckets). Under SAMO these hold the
// compressed vectors — the paper's collective-communication optimization:
// message size drops from 2φ to 2fφ bytes with no extra copies. Both the
// serial-barrier and the overlapped reduce paths consume exactly this list
// in exactly this order, which is what makes them bitwise-identical. The
// returned slice is owned by the state and reused across calls (do not
// modify its structure).
func (ms *ModelState) ReduceBuffers() [][]float32 { return ms.reduceBufs }

// GradElements returns the total element count of the all-reduce payload.
func (ms *ModelState) GradElements() int64 {
	var n int64
	for _, st := range ms.states {
		n += int64(len(st.grad16))
	}
	return n
}

// Overflow scans the captured fp16 gradients for Inf/NaN — the per-step
// overflow check behind dynamic loss scaling. Large gradient vectors scan
// chunked on the worker pool with an atomic early exit
// (tensor.HasNonFiniteSlice); the scan allocates nothing, preserving the
// fp16 train-step zero-alloc contract. In distributed training every rank
// must agree on the verdict (or their loss scales and parameters diverge),
// so the engine reduces this flag globally before calling StepGiven.
func (ms *ModelState) Overflow() bool {
	for _, st := range ms.states {
		if tensor.HasNonFiniteSlice(st.grad16) {
			return true
		}
	}
	return false
}

// Step runs the mixed-precision optimizer step (§III-C):
//
//  1. overflow check on ∇θ16 (dynamic loss scaling);
//  2. upscale: ∇θ32 = ∇θ16 / scale, computed directly on the compressed
//     vectors;
//  3. optimizer on (θ32, ∇θ32) — compressed vectors, dense kernels;
//  4. down-cast: tmp16 = fp16(θ32); then EXPAND tmp16 into dense θ16.
//
// It returns true if the step was applied, false if skipped on overflow.
// Gradient accumulators are cleared either way.
func (ms *ModelState) Step() bool { return ms.StepGiven(ms.Overflow()) }

// StepGiven is Step with an externally supplied (e.g. globally reduced)
// overflow verdict.
func (ms *ModelState) StepGiven(overflow bool) bool {
	// Snapshot the scale the in-flight gradients were produced under:
	// Scaler.Update may grow it for the NEXT step.
	scaleUsed := ms.Scaler.Scale
	if !ms.Scaler.Update(overflow) {
		ms.skipped++
		for _, st := range ms.states {
			zero(st.grad16)
		}
		return false
	}
	invScale := float32(1 / scaleUsed)

	for _, st := range ms.states {
		for i, g := range st.grad16 {
			st.grad32[i] = g * invScale
		}
	}
	if ms.ClipNorm > 0 {
		optim.ClipGradNorm(ms.clipBufs, ms.ClipNorm)
	}
	for _, st := range ms.states {
		ms.opt.Step(st.p.Name, st.theta32, st.grad32)
		if st.compressed {
			// Down-cast with expansion: compressed fp16 copy, then scatter.
			for i, v := range st.theta32 {
				st.tmp16[i] = fp16.Round(v)
			}
			st.ix.Expand(st.p.Value.Data(), st.tmp16)
		} else {
			dst := st.p.Value.Data()
			for i, v := range st.theta32 {
				dst[i] = fp16.Round(v)
			}
		}
		zero(st.grad16)
	}
	ms.steps++
	return true
}

// Steps returns how many optimizer steps were applied.
func (ms *ModelState) Steps() int { return ms.steps }

// SkippedSteps returns how many steps were skipped due to fp16 overflow.
func (ms *ModelState) SkippedSteps() int { return ms.skipped }

// Memory returns the byte-accurate ledger of this state's storage at its
// logical widths. For SAMO it equals SAMOBreakdown(φ, fφ) plus the dense
// remainder for unprunable parameters; the equivalence with the §III-D
// closed form is asserted in tests.
func (ms *ModelState) Memory() MemoryBreakdown {
	var b MemoryBreakdown
	for _, st := range ms.states {
		full := int64(st.p.Size())
		stored := int64(len(st.theta32))
		b.Theta16 += BytesTheta16 * full
		b.Grad16 += BytesGrad16 * stored
		b.Theta32 += BytesTheta32 * stored
		b.Grad32 += BytesGrad32 * stored
		b.OptStates += int64(ms.opt.StateBytesPerParam()) * stored
		if st.compressed {
			b.Index += st.ix.Bytes()
			b.TempCopy += BytesTheta16 * stored
		}
		// Layer-owned structure (e.g. a SparseLinear's CSR patterns) rides
		// with the parameter it indexes.
		b.Index += st.p.MetaBytes
	}
	return b
}

// Fingerprint hashes the state's IMMUTABLE structure — mode, optimizer
// footprint, and per parameter its name and full (pattern-independent)
// size. Two states with equal fingerprints accept each other's
// checkpoints; the checkpoint manager stores it in the manifest so a
// resume against a different model, optimizer or storage mode is refused
// up front instead of failing byte-by-byte mid-load.
//
// The stored (pattern-dependent) length is deliberately NOT hashed: a
// gradual pruning schedule shrinks patterns mid-run, and a freshly rebuilt
// state (initial pattern) must accept a post-shrink checkpoint to recover.
// The pattern itself is serialized inside the snapshot and validated there
// — a checkpoint loads only into a matching (superset) pattern, with the
// state shrunk on load.
func (ms *ModelState) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putU64(uint64(ms.Mode))
	putU64(uint64(ms.opt.StateBytesPerParam()))
	for _, st := range ms.states {
		h.Write([]byte(st.p.Name))
		putU64(uint64(ms.fullSize(st)))
	}
	return h.Sum64()
}

// fullSize returns a parameter's pattern-independent element count: the
// dense-view length for pattern-bearing parameters (whose p.Size() shrinks
// with the pattern), the tensor size otherwise.
func (ms *ModelState) fullSize(st *paramState) int {
	if pl := ms.patterns[st.p]; pl != nil {
		return pl.PatternFullLen()
	}
	return st.p.Size()
}

// Model returns the managed model.
func (ms *ModelState) Model() *nn.Model { return ms.model }

func zero(s []float32) {
	for i := range s {
		s[i] = 0
	}
}
