package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// testSchedule ramps 0.5 → 0.9 with four prune events at steps 2, 4, 6, 8.
func testSchedule() prune.Schedule {
	return prune.Schedule{Initial: 0.5, Final: 0.9, BeginStep: 2, EndStep: 8, Frequency: 2}
}

// TestGradualPruneNNZMonotoneAndInPlace pins the tentpole storage contract:
// across a full cubic ramp, every pattern length only ever decreases, all
// NNZ-length vectors (θ32, ∇θ32, tmp16, optimizer moments) shrink in
// lockstep, nothing is reallocated — compaction re-heads the original
// backing arrays — and the model fingerprint is invariant, so checkpoints
// before and after an event address the same state identity.
func TestGradualPruneNNZMonotoneAndInPlace(t *testing.T) {
	_, ms, _ := buildTestSetup(SAMO, 0.5, 51)
	gp, err := NewGradualPruner(ms, testSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if gp.Targets() == 0 {
		t.Fatal("no shrink targets on a pruned SAMO state")
	}
	fp := ms.Fingerprint()

	heads := make(map[*paramState]*float32)
	slabHeads := make([]*float32, len(ms.reduceBufs))
	for _, st := range gp.targets {
		if st.compressed {
			heads[st] = &st.theta32[0]
		}
	}
	for bi, buf := range ms.reduceBufs {
		if len(buf) > 0 {
			slabHeads[bi] = &buf[0]
		}
	}

	nnzOf := func(st *paramState) int {
		if st.ix != nil {
			return st.ix.NNZ()
		}
		return len(st.theta32)
	}
	prev := make(map[*paramState]int)
	for _, st := range gp.targets {
		prev[st] = nnzOf(st)
	}

	tr := NewTrainer(ms)
	shrinks := 0
	for step := 0; step < 10; step++ {
		x, targets := makeBatch(6, 8, 4, uint64(6000+step))
		tr.TrainStep(x, targets)
		if gp.MaybePrune(step) {
			shrinks++
		}
		for _, st := range gp.targets {
			nnz := nnzOf(st)
			if nnz > prev[st] {
				t.Fatalf("step %d: %s NNZ grew %d -> %d", step, st.p.Name, prev[st], nnz)
			}
			prev[st] = nnz
			if !st.compressed {
				continue
			}
			if len(st.grad32) != nnz || len(st.tmp16) != nnz || len(st.theta32) != nnz ||
				len(st.grad16) != nnz || st.ix.NNZ() != nnz || st.p.Value.Len() != st.ix.FullLen() {
				t.Fatalf("step %d: %s vectors off lockstep: θ32 %d ∇32 %d tmp %d ∇16 %d ix %d",
					step, st.p.Name, len(st.theta32), len(st.grad32), len(st.tmp16),
					len(st.grad16), st.ix.NNZ())
			}
			for _, vec := range ms.opt.States(st.p.Name) {
				if len(vec) != nnz {
					t.Fatalf("step %d: %s optimizer vector %d != nnz %d", step, st.p.Name, len(vec), nnz)
				}
			}
			if &st.theta32[0] != heads[st] {
				t.Fatalf("step %d: %s θ32 was reallocated by a prune event", step, st.p.Name)
			}
			// Dropped dense coordinates must read exactly zero.
			mask := st.ix.Mask()
			for i, v := range st.p.Value.Data() {
				if !mask.Get(i) && v != 0 {
					t.Fatalf("step %d: %s dense θ16[%d] = %g off-pattern", step, st.p.Name, i, v)
				}
			}
		}
		for bi, buf := range ms.reduceBufs {
			if slabHeads[bi] != nil && len(buf) > 0 && &buf[0] != slabHeads[bi] {
				t.Fatalf("step %d: bucket %d slab reallocated", step, bi)
			}
		}
		if got := ms.Fingerprint(); got != fp {
			t.Fatalf("step %d: fingerprint changed %x -> %x across a prune event", step, fp, got)
		}
	}
	if shrinks < 3 {
		t.Fatalf("only %d shrinking events fired, want ≥ 3", shrinks)
	}
	// The end of the ramp hit Final exactly: kept = full − ⌊0.9·full⌋.
	for _, st := range gp.targets {
		full := ms.fullSize(st)
		want := full - int(0.9*float64(full))
		if nnzOf(st) != want {
			t.Errorf("%s final NNZ %d, want %d at 90%% sparsity", st.p.Name, nnzOf(st), want)
		}
	}
}

// TestGradualPruneSAMOMatchesMaskedDense extends the repo's central
// equivalence to gradual pruning: a full ramp trained with SAMO-compressed
// storage and with the masked-dense reference yields bitwise-identical
// losses, survivors and final parameters — selection reads θ32, which the
// two modes share exactly.
func TestGradualPruneSAMOMatchesMaskedDense(t *testing.T) {
	for _, global := range []bool{false, true} {
		sched := testSchedule()
		sched.Global = global
		_, msD, _ := buildTestSetup(Dense, 0.5, 52)
		_, msS, _ := buildTestSetup(SAMO, 0.5, 52)
		gpD, err := NewGradualPruner(msD, sched)
		if err != nil {
			t.Fatal(err)
		}
		gpS, _ := NewGradualPruner(msS, sched)

		trD, trS := NewTrainer(msD), NewTrainer(msS)
		for step := 0; step < 10; step++ {
			x, targets := makeBatch(6, 8, 4, uint64(6100+step))
			lD, _ := trD.TrainStep(x, targets)
			lS, _ := trS.TrainStep(x.Clone(), targets)
			if lD != lS {
				t.Fatalf("global=%v step %d: losses diverged %g vs %g", global, step, lD, lS)
			}
			if gpD.MaybePrune(step) != gpS.MaybePrune(step) {
				t.Fatalf("global=%v step %d: modes disagreed on shrinking", global, step)
			}
		}
		pd, ps := msD.Model().Params(), msS.Model().Params()
		for i := range pd {
			if d := tensor.MaxAbsDiff(pd[i].Value, ps[i].Value); d != 0 {
				t.Errorf("global=%v: param %s differs by %g after ramp", global, pd[i].Name, d)
			}
		}
		for i, st := range msD.states {
			if st.ix == nil {
				continue
			}
			if got, want := st.ix.NNZ(), msS.states[i].ix.NNZ(); got != want {
				t.Errorf("global=%v: %s patterns diverged: %d vs %d", global, st.p.Name, got, want)
			}
		}
	}
}

// TestGradualPruneGlobalPooledTarget pins the global criterion's accounting:
// after the final event the POOLED sparsity across all targets hits Final,
// rather than each layer independently.
func TestGradualPruneGlobalPooledTarget(t *testing.T) {
	sched := prune.Schedule{Initial: 0.5, Final: 0.8, BeginStep: 0, EndStep: 4, Frequency: 2, Global: true}
	_, ms, _ := buildTestSetup(SAMO, 0.5, 53)
	gp, err := NewGradualPruner(ms, sched)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(ms)
	for step := 0; step < 5; step++ {
		x, targets := makeBatch(6, 8, 4, uint64(6200+step))
		tr.TrainStep(x, targets)
		gp.MaybePrune(step)
	}
	var full, kept int
	for _, st := range gp.targets {
		full += ms.fullSize(st)
		kept += gp.storedNNZ(st)
	}
	if want := full - int(0.8*float64(full)); kept != want {
		t.Fatalf("pooled kept %d of %d, want %d at 80%% global sparsity", kept, full, want)
	}
}

// TestGradualPruneSparseExecLayers drives the ramp through first-class
// SparseLinear layers: the CSR patterns shrink in place at each event
// (NNZ monotone, backed by the same arrays) and training — whose input
// gradient rides the cached transpose refreshed by ShrinkPattern — keeps
// reducing the loss afterwards.
func TestGradualPruneSparseExecLayers(t *testing.T) {
	sm, ms := buildSparseExecSetup(0.5, 54)
	gp, err := NewGradualPruner(ms, testSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if gp.Targets() == 0 {
		t.Fatal("no pattern-layer targets after Sparsify")
	}
	var sls []*nn.SparseLinear
	for _, l := range sm.Layers {
		if sl, ok := l.(*nn.SparseLinear); ok {
			sls = append(sls, sl)
		}
	}
	prev := make([]int, len(sls))
	for i, sl := range sls {
		prev[i] = sl.NNZ()
	}
	tr := NewTrainer(ms)
	shrinks := 0
	for step := 0; step < 10; step++ {
		x, targets := makeBatch(8, 16, 8, uint64(6300+step))
		tr.TrainStep(x, targets)
		if gp.MaybePrune(step) {
			shrinks++
		}
		for i, sl := range sls {
			if sl.NNZ() > prev[i] {
				t.Fatalf("step %d: layer %d NNZ grew %d -> %d", step, i, prev[i], sl.NNZ())
			}
			prev[i] = sl.NNZ()
		}
	}
	if shrinks < 3 {
		t.Fatalf("only %d shrinking events fired, want ≥ 3", shrinks)
	}
	for _, sl := range sls {
		full := sl.PatternFullLen()
		if want := full - int(0.9*float64(full)); sl.NNZ() != want {
			t.Errorf("layer NNZ %d, want %d at 90%% sparsity", sl.NNZ(), want)
		}
	}
	// Training still learns on the shrunk patterns.
	x, targets := makeBatch(16, 16, 8, 6400)
	first := tr.EvalLoss(x, targets)
	for i := 0; i < 40; i++ {
		tr.TrainStep(x, targets)
	}
	if last := tr.EvalLoss(x, targets); last >= first {
		t.Errorf("post-ramp training did not learn: %g -> %g", first, last)
	}
}

// TestGradualPruneZeroAllocBetweenEvents pins the steady-state contract:
// once the ramp has finished, a training step plus the non-event
// MaybePrune check allocates nothing — prune events pay their own cost,
// the steps between them stay on the zero-alloc path.
func TestGradualPruneZeroAllocBetweenEvents(t *testing.T) {
	_, ms, _ := buildTestSetup(SAMO, 0.5, 55)
	sched := prune.Schedule{Initial: 0.5, Final: 0.8, BeginStep: 1, EndStep: 3, Frequency: 1}
	gp, err := NewGradualPruner(ms, sched)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(ms)
	x, targets := makeBatch(16, 8, 4, 6500)
	step := 0
	run := func() {
		tr.TrainStep(x, targets)
		gp.MaybePrune(step)
		step++
	}
	for step < 8 { // through the whole ramp, then warm the shrunk steady state
		run()
	}
	if a := testing.AllocsPerRun(30, run); a != 0 {
		t.Errorf("steady state between events allocates %.1f per step, want 0", a)
	}
}

// TestGradualCheckpointShrinkOnLoad is the resume golden for mid-ramp
// checkpoints: a snapshot taken after some prune events loads into a FRESH
// state still holding the initial (larger) pattern — the loader shrinks the
// state onto the checkpoint's pattern first — and the resumed run finishes
// the ramp bitwise-identically to the uninterrupted one.
func TestGradualCheckpointShrinkOnLoad(t *testing.T) {
	sched := testSchedule() // events at 2, 4, 6, 8
	_, msA, _ := buildTestSetup(SAMO, 0.5, 56)
	gpA, err := NewGradualPruner(msA, sched)
	if err != nil {
		t.Fatal(err)
	}
	trA := NewTrainer(msA)
	var buf bytes.Buffer
	for step := 0; step < 5; step++ { // through events 2 and 4
		x, tg := makeBatch(6, 8, 4, uint64(6600+step))
		trA.TrainStep(x, tg)
		gpA.MaybePrune(step)
	}
	if _, err := msA.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var lossesA []float64
	for step := 5; step < 10; step++ { // events 6 and 8 remain
		x, tg := makeBatch(6, 8, 4, uint64(6600+step))
		l, _ := trA.TrainStep(x, tg)
		lossesA = append(lossesA, l)
		gpA.MaybePrune(step)
	}

	_, msB, _ := buildTestSetup(SAMO, 0.5, 56) // fresh: initial 50% pattern
	if err := msB.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("shrink-on-load failed: %v", err)
	}
	gpB, _ := NewGradualPruner(msB, sched)
	trB := NewTrainer(msB)
	for step := 5; step < 10; step++ {
		x, tg := makeBatch(6, 8, 4, uint64(6600+step))
		l, _ := trB.TrainStep(x, tg)
		if l != lossesA[step-5] {
			t.Fatalf("step %d: resumed loss %.9f != original %.9f", step, l, lossesA[step-5])
		}
		gpB.MaybePrune(step)
	}
	pa, pb := msA.Model().Params(), msB.Model().Params()
	for i := range pa {
		if d := tensor.MaxAbsDiff(pa[i].Value, pb[i].Value); d != 0 {
			t.Errorf("param %s differs by %g after mid-ramp resume", pa[i].Name, d)
		}
	}
	for i, st := range msA.states {
		if st.ix != nil && st.ix.NNZ() != msB.states[i].ix.NNZ() {
			t.Errorf("%s final patterns diverged: %d vs %d",
				st.p.Name, st.ix.NNZ(), msB.states[i].ix.NNZ())
		}
	}
}

// TestGradualCheckpointNonSubsetRefused pins the matching-pattern contract:
// a checkpoint whose pattern holds coordinates the current state has
// already pruned away cannot load — patterns only ever shrink, so the
// loader refuses rather than resurrecting dropped coordinates.
func TestGradualCheckpointNonSubsetRefused(t *testing.T) {
	_, msWide, _ := buildTestSetup(SAMO, 0.5, 57)
	var buf bytes.Buffer
	if _, err := msWide.Save(&buf); err != nil { // initial 50% pattern
		t.Fatal(err)
	}

	_, msNarrow, _ := buildTestSetup(SAMO, 0.5, 57)
	gp, err := NewGradualPruner(msNarrow, prune.Schedule{
		Initial: 0.5, Final: 0.8, BeginStep: 0, EndStep: 0, Frequency: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(msNarrow)
	x, tg := makeBatch(6, 8, 4, 6700)
	tr.TrainStep(x, tg)
	if !gp.MaybePrune(0) {
		t.Fatal("one-shot event did not shrink")
	}
	err = msNarrow.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "pattern") {
		t.Fatalf("pre-shrink checkpoint loaded into post-shrink state: %v", err)
	}
}

// TestGradualInferenceLoadsPostShrinkCheckpoint closes the serving handoff:
// an InferenceState built from the ORIGINAL pruning identity accepts a
// mid-ramp training checkpoint (shrinking its own patterns on load) and
// reproduces the trained model's forward bitwise.
func TestGradualInferenceLoadsPostShrinkCheckpoint(t *testing.T) {
	_, ms, pr := buildTestSetup(SAMO, 0.5, 58)
	gp, err := NewGradualPruner(ms, testSchedule())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(ms)
	for step := 0; step < 7; step++ { // through events 2, 4, 6
		x, tg := makeBatch(6, 8, 4, uint64(6800+step))
		tr.TrainStep(x, tg)
		gp.MaybePrune(step)
	}
	var buf bytes.Buffer
	if _, err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}

	rng := tensor.NewRNG(58)
	m2 := nn.BuildMLP("mlp", []int{8, 16, 4}, rng)
	is := NewInferenceState(m2, optim.NewAdam(0.01), SAMO, pr)
	if ms.Fingerprint() != is.Fingerprint() {
		t.Fatal("fingerprints diverged across a prune event")
	}
	if err := is.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("inference shrink-on-load failed: %v", err)
	}
	x, _ := makeBatch(8, 8, 4, 6900)
	a := tensor.NewArena()
	want := append([]float32(nil), ms.Model().Infer(a, x).Data()...)
	a.Reset()
	got := is.Model().Infer(a, x).Data()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("inference output %d differs after mid-ramp handoff: %g vs %g",
				i, want[i], got[i])
		}
	}
}
