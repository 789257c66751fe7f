package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/tensor"
)

func TestCheckpointResumeEquivalence(t *testing.T) {
	// Train 5 steps, checkpoint, train 5 more (run A). Separately, rebuild
	// from scratch, load the checkpoint, train the same 5 batches (run B).
	// A and B must agree bitwise: checkpointing captures the full training
	// state (θ32, Adam moments, loss scaler).
	_, msA, _ := buildTestSetup(SAMO, 0.7, 77)
	trA := NewTrainer(msA)
	for step := 0; step < 5; step++ {
		x, tg := makeBatch(6, 8, 4, uint64(2000+step))
		trA.TrainStep(x, tg)
	}
	var buf bytes.Buffer
	n, err := msA.Save(&buf)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("Save reported %d bytes, wrote %d", n, buf.Len())
	}
	var lossesA []float64
	for step := 5; step < 10; step++ {
		x, tg := makeBatch(6, 8, 4, uint64(2000+step))
		l, _ := trA.TrainStep(x, tg)
		lossesA = append(lossesA, l)
	}

	_, msB, _ := buildTestSetup(SAMO, 0.7, 77)
	if err := msB.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load: %v", err)
	}
	trB := NewTrainer(msB)
	for step := 5; step < 10; step++ {
		x, tg := makeBatch(6, 8, 4, uint64(2000+step))
		l, _ := trB.TrainStep(x, tg)
		if l != lossesA[step-5] {
			t.Fatalf("step %d: resumed loss %.9f != original %.9f", step, l, lossesA[step-5])
		}
	}
	// Final parameters identical.
	pa, pb := msA.Model().Params(), msB.Model().Params()
	for i := range pa {
		if d := tensor.MaxAbsDiff(pa[i].Value, pb[i].Value); d != 0 {
			t.Errorf("param %s differs by %g after resume", pa[i].Name, d)
		}
	}
}

func TestCheckpointRestoresScalerAndCounters(t *testing.T) {
	_, ms, _ := buildTestSetup(SAMO, 0.5, 79)
	ms.Scaler.Scale = 4096
	tr := NewTrainer(ms)
	x, tg := makeBatch(4, 8, 4, 3000)
	tr.TrainStep(x, tg)

	var buf bytes.Buffer
	if _, err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, ms2, _ := buildTestSetup(SAMO, 0.5, 79)
	if err := ms2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if ms2.Scaler.Scale != ms.Scaler.Scale {
		t.Errorf("scaler scale %g != %g", ms2.Scaler.Scale, ms.Scaler.Scale)
	}
	if ms2.Steps() != ms.Steps() || ms2.SkippedSteps() != ms.SkippedSteps() {
		t.Error("step counters not restored")
	}
}

func TestCheckpointSAMOSmallerThanDense(t *testing.T) {
	// The SAMO payoff extends to checkpoints: compressed θ32 + moments at
	// 90% sparsity make the file far smaller than the dense checkpoint of
	// the same model.
	_, msS, _ := buildTestSetup(SAMO, 0.9, 81)
	msD := NewModelState(nn.BuildMLP("mlp", []int{8, 16, 4}, tensor.NewRNG(81)),
		optim.NewAdam(0.01), Dense, nil)
	// Prime optimizer states so both serialize them.
	trS, trD := NewTrainer(msS), NewTrainer(msD)
	x, tg := makeBatch(4, 8, 4, 4000)
	trS.TrainStep(x, tg)
	trD.TrainStep(x.Clone(), tg)

	var bs, bd bytes.Buffer
	if _, err := msS.Save(&bs); err != nil {
		t.Fatal(err)
	}
	if _, err := msD.Save(&bd); err != nil {
		t.Fatal(err)
	}
	if bs.Len() >= bd.Len() {
		t.Errorf("SAMO checkpoint %d bytes not smaller than dense %d", bs.Len(), bd.Len())
	}
	// At 90% sparsity of the weight-dominated MLP, expect well under half.
	if float64(bs.Len()) > 0.6*float64(bd.Len()) {
		t.Errorf("compression weaker than expected: %d vs %d", bs.Len(), bd.Len())
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	_, ms, _ := buildTestSetup(SAMO, 0.5, 83)
	var buf bytes.Buffer
	if _, err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte: CRC must catch it.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0xFF
	_, ms2, _ := buildTestSetup(SAMO, 0.5, 83)
	if err := ms2.Load(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corruption not detected: %v", err)
	}
	// Truncation must be caught too.
	_, ms3, _ := buildTestSetup(SAMO, 0.5, 83)
	if err := ms3.Load(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Error("truncation not detected")
	}
	// Wrong mode must be rejected.
	_, msD, _ := buildTestSetup(Dense, 0.5, 83)
	if err := msD.Load(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Errorf("mode mismatch not detected: %v", err)
	}
	// Garbage must be rejected by magic.
	_, ms4, _ := buildTestSetup(SAMO, 0.5, 83)
	junk := append([]byte("notasamocheckpointbutlongenough"), 0, 0, 0, 0)
	if err := ms4.Load(bytes.NewReader(junk)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCheckpointFreshStateLoad(t *testing.T) {
	// Loading into a never-stepped state (no optimizer vectors yet) works:
	// Load primes and overwrites them.
	_, ms, _ := buildTestSetup(SAMO, 0.6, 87)
	tr := NewTrainer(ms)
	x, tg := makeBatch(4, 8, 4, 5000)
	tr.TrainStep(x, tg)
	var buf bytes.Buffer
	if _, err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}

	_, fresh, _ := buildTestSetup(SAMO, 0.6, 87) // never stepped
	if err := fresh.Load(&buf); err != nil {
		t.Fatalf("Load into fresh state: %v", err)
	}
	pa, pb := ms.Model().Params(), fresh.Model().Params()
	for i := range pa {
		if d := tensor.MaxAbsDiff(pa[i].Value, pb[i].Value); d != 0 {
			t.Errorf("param %s differs by %g", pa[i].Name, d)
		}
	}
}

// TestCheckpointBeforeFirstStep saves a state the optimizer has never
// stepped (no moment vectors yet): the checkpoint must load into a fresh
// training state, which then trains bitwise like the original, and into
// the forward-only state.
func TestCheckpointBeforeFirstStep(t *testing.T) {
	_, msA, _ := buildTestSetup(SAMO, 0.6, 89)
	var buf bytes.Buffer
	if _, err := msA.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, msB, _ := buildTestSetup(SAMO, 0.6, 89)
	if err := msB.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load into a training state: %v", err)
	}
	_, inf := buildInferSetup(SAMO, 0.6, 89)
	if err := inf.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load into an inference state: %v", err)
	}
	trA, trB := NewTrainer(msA), NewTrainer(msB)
	for step := 0; step < 3; step++ {
		x, tg := makeBatch(6, 8, 4, uint64(5100+step))
		la, _ := trA.TrainStep(x, tg)
		lb, _ := trB.TrainStep(x, tg)
		if math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("step %d: loss %v after loading differs from %v", step, lb, la)
		}
	}
}
