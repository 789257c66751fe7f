package sparse

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Sparse/dense execution crossover. The sparsity literature's consistent
// finding (Hoefler et al. 2021; the paper's Figure 1) is that sparse kernels
// beat dense ones only above a density-dependent threshold: below it, the
// dense kernel's register blocking and contiguous streaming outweigh the
// flop savings. Which side of the threshold a layer sits on depends on the
// machine, the product shape AND the pattern density, so the decision is
// probed at runtime per (shape bucket, density band) and frozen.
//
// The two execution paths are NOT bitwise identical (they sum different terms in different orders), so a frozen
// bucket never re-probes: flipping the winner mid-training would perturb
// results. The probe phase itself is a deterministic alternation (choice by
// call count, not timing), so two runs diverge only after their freezes —
// and per-path results remain bitwise-identical at every worker count.
// Runs that need a machine-independent path can pin one with SetXover
// ("sparse"/"dense") or the SAMO_SPARSE_XOVER environment variable.

// XoverChoice is one execution path of a sparse-or-dense product.
type XoverChoice uint8

const (
	// XoverSparse runs the CSR kernel (SpMMT/SpMM).
	XoverSparse XoverChoice = iota
	// XoverDense runs the dense GEMM against a masked-dense materialization.
	XoverDense
)

func (c XoverChoice) String() string {
	if c == XoverDense {
		return "dense"
	}
	return "sparse"
}

// xoverProbeRuns is how many timed samples each path gets before a bucket
// freezes; minima are compared (noise only adds).
const xoverProbeRuns = 3

// XoverOp identifies which product of a sparse layer a decision is for.
// Forward and input-gradient products tune in separate buckets even at
// identical shapes: their dense fallbacks are different kernels (A·Bᵀ vs A·B) with different
// packing costs, and a square layer would otherwise pool their timings
// into one bucket and freeze a winner that is wrong for one of them.
type XoverOp uint8

const (
	// XoverOpForward is the y = x·Wᵀ product.
	XoverOpForward XoverOp = iota
	// XoverOpBackward is the dx = dy·W product.
	XoverOpBackward
)

// xoverKey buckets a decision by op, ceil-log2 of each product dimension
// and the density band — ceil-log2 of 1/density — so 50%, 75%, 90%, 95%
// and 99% sparse patterns land in distinct bands while shapes within a
// power of two share a decision.
type xoverKey struct {
	op             XoverOp
	mb, kb, nb, db uint8
}

func xoverLog2(n int) uint8 {
	if n <= 1 {
		return 0
	}
	return uint8(bits.Len(uint(n - 1)))
}

// densityBand returns ceil(log2(full/nnz)) clamped to a byte: band 0 is
// fully dense, each further band halves the density.
func densityBand(nnz, full int) uint8 {
	if nnz <= 0 || full <= nnz {
		return 0
	}
	return xoverLog2((full + nnz - 1) / nnz)
}

// XoverEntry is one bucket's probe state. chosen is -1 while probing and
// the winning XoverChoice afterwards; steady-state reads are one atomic
// load.
type XoverEntry struct {
	chosen atomic.Int32

	mu   sync.Mutex
	best [2]float64 // min ns per unit of work per path
	recs [2]int
	runs [2]int
}

// Decided returns the frozen choice, or (_, false) while probing.
func (e *XoverEntry) Decided() (XoverChoice, bool) {
	if c := e.chosen.Load(); c >= 0 {
		return XoverChoice(c), true
	}
	return XoverSparse, false
}

// nextProbe picks the least-probed path — a deterministic alternation.
func (e *XoverEntry) nextProbe() XoverChoice {
	e.mu.Lock()
	c := XoverSparse
	if e.runs[XoverDense] < e.runs[XoverSparse] {
		c = XoverDense
	}
	e.runs[c]++
	e.mu.Unlock()
	return c
}

// Record stores one probe timing, normalized by the product's nominal work
// (the dense-equivalent m·k·n — both paths must share a unit, and a log2
// bucket spans shapes differing ~8x in it), and freezes the winner once
// both paths have xoverProbeRuns samples.
func (e *XoverEntry) Record(c XoverChoice, d time.Duration, work int) {
	if d < 1 {
		d = 1
	}
	if work < 1 {
		work = 1
	}
	v := float64(d) / float64(work)
	e.mu.Lock()
	if e.recs[c] == 0 || v < e.best[c] {
		e.best[c] = v
	}
	e.recs[c]++
	if e.chosen.Load() < 0 && e.recs[XoverSparse] >= xoverProbeRuns && e.recs[XoverDense] >= xoverProbeRuns {
		win := XoverSparse
		if e.best[XoverDense] < e.best[XoverSparse] {
			win = XoverDense
		}
		e.chosen.Store(int32(win))
		// A freeze in this process is the one event worth persisting;
		// disk-loaded entries arrive already frozen and never reach here.
		xoverDirty.Store(true)
		scheduleXoverSave()
	}
	e.mu.Unlock()
}

var xoverTable struct {
	mu sync.RWMutex
	m  map[xoverKey]*XoverEntry
}

// xoverForce: -1 probes per bucket (auto); otherwise every decision returns
// the forced XoverChoice.
var xoverForce atomic.Int32

func init() {
	xoverForce.Store(-1)
	switch os.Getenv("SAMO_SPARSE_XOVER") {
	case "sparse":
		xoverForce.Store(int32(XoverSparse))
	case "dense":
		xoverForce.Store(int32(XoverDense))
	}
}

// SetXover pins every crossover decision to "sparse" or "dense", or
// restores per-bucket probing with "auto". It returns the previous mode so
// tests and benchmarks can scope the override. SAMO_SPARSE_XOVER sets the
// initial mode.
func SetXover(mode string) (prev string, err error) {
	switch p := xoverForce.Load(); {
	case p == int32(XoverSparse):
		prev = "sparse"
	case p == int32(XoverDense):
		prev = "dense"
	default:
		prev = "auto"
	}
	switch mode {
	case "auto":
		xoverForce.Store(-1)
	case "sparse":
		xoverForce.Store(int32(XoverSparse))
	case "dense":
		xoverForce.Store(int32(XoverDense))
	default:
		return prev, fmt.Errorf("sparse: SetXover(%q): want auto, sparse or dense", mode)
	}
	return prev, nil
}

// ResetXover clears all frozen decisions (tests and benchmarks re-probing)
// and drops any pending persistence — decisions that no longer exist must
// not be flushed over the on-disk table.
func ResetXover() {
	xoverTable.mu.Lock()
	xoverTable.m = nil
	xoverTable.mu.Unlock()
	xoverDirty.Store(false)
}

// XoverDecide resolves the execution path for one sparse-vs-dense product
// of shape (m,k,n) whose sparse operand stores nnz of full elements. It
// returns the bucket entry, the path to run NOW, and whether this call is a
// probe the caller must time and report back via entry.Record. A forced
// mode, a degenerate pattern (nnz 0: nothing to multiply densely for) and a
// frozen bucket all return probe=false with a nil entry or the frozen one.
func XoverDecide(op XoverOp, m, k, n, nnz, full int) (e *XoverEntry, c XoverChoice, probe bool) {
	if f := xoverForce.Load(); f >= 0 {
		return nil, XoverChoice(f), false
	}
	if nnz <= 0 {
		return nil, XoverSparse, false
	}
	key := xoverKey{op, xoverLog2(m), xoverLog2(k), xoverLog2(n), densityBand(nnz, full)}
	xoverTable.mu.RLock()
	e = xoverTable.m[key]
	xoverTable.mu.RUnlock()
	if e == nil {
		xoverTable.mu.Lock()
		if e = xoverTable.m[key]; e == nil {
			if xoverTable.m == nil {
				xoverTable.m = make(map[xoverKey]*XoverEntry)
			}
			e = &XoverEntry{}
			e.chosen.Store(-1)
			xoverTable.m[key] = e
		}
		xoverTable.mu.Unlock()
	}
	if c, ok := e.Decided(); ok {
		return e, c, false
	}
	return e, e.nextProbe(), true
}
