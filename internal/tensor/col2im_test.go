package tensor

import (
	"fmt"
	"math"
	"testing"
)

// col2imShapes are the conv backward lowerings the paper's CNNs actually
// run: VGG same-pad 3×3 stacks at two depths, the WideResNet 3×3 body, its
// stride-2 downsampling block, and the pad-0 1×1 stride-2 shortcut.
var col2imShapes = []struct {
	name string
	s    ConvSpec
	n    int
}{
	{"vgg_64c_32x32", ConvSpec{InC: 64, OutC: 64, Kernel: 3, Stride: 1, Pad: 1, InH: 32, InW: 32}, 2},
	{"vgg_128c_16x16", ConvSpec{InC: 128, OutC: 128, Kernel: 3, Stride: 1, Pad: 1, InH: 16, InW: 16}, 2},
	{"wrn_16c_32x32", ConvSpec{InC: 16, OutC: 16, Kernel: 3, Stride: 1, Pad: 1, InH: 32, InW: 32}, 2},
	{"wrn_down_32c_s2", ConvSpec{InC: 32, OutC: 64, Kernel: 3, Stride: 2, Pad: 1, InH: 32, InW: 32}, 2},
	{"wrn_short_1x1_s2_p0", ConvSpec{InC: 16, OutC: 32, Kernel: 1, Stride: 2, Pad: 0, InH: 32, InW: 32}, 2},
}

func col2imCols(s ConvSpec, n int, seed uint64) *Tensor {
	cols := New(n*s.OutH()*s.OutW(), s.InC*s.Kernel*s.Kernel)
	fillSeq(cols, NewRNG(seed))
	return cols
}

// bitwiseEqual compares element representations, not values: it
// distinguishes -0 from +0 and would catch any NaN-payload drift, which
// MaxAbsDiff's arithmetic comparison cannot.
func bitwiseEqual(a, b *Tensor) (int, bool) {
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestCol2ImParallelBitwiseDeterminism pins the parallel gather kernel to
// the serial scatter reference BITWISE at every worker count the training
// stack uses — the same contract the GEMM family carries: the conv
// backward must not change results when the pool is resized.
func TestCol2ImParallelBitwiseDeterminism(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	for _, tc := range col2imShapes {
		t.Run(tc.name, func(t *testing.T) {
			cols := col2imCols(tc.s, tc.n, 101)
			ref := New(tc.n, tc.s.InC, tc.s.InH, tc.s.InW)
			col2imSerial(ref.Data(), cols.Data(), tc.s, tc.n)
			for _, w := range []int{1, 2, 3, 4, 8, 16} {
				SetWorkers(w)
				out := New(tc.n, tc.s.InC, tc.s.InH, tc.s.InW)
				Col2ImInto(out, cols, tc.s, tc.n)
				if i, ok := bitwiseEqual(out, ref); !ok {
					t.Fatalf("workers=%d: Col2ImInto differs from serial at flat index %d: %g vs %g",
						w, i, out.Data()[i], ref.Data()[i])
				}
				// The zeroing variant must overwrite garbage and still match.
				dirty := New(tc.n, tc.s.InC, tc.s.InH, tc.s.InW)
				fillSeq(dirty, NewRNG(7))
				Col2ImZeroInto(dirty, cols, tc.s, tc.n)
				if i, ok := bitwiseEqual(dirty, ref); !ok {
					t.Fatalf("workers=%d: Col2ImZeroInto differs from serial at flat index %d",
						w, i)
				}
			}
		})
	}
}

// TestCol2ImAccumulates pins the documented accumulate semantics: a
// non-zero destination gains the scatter on top of its contents, in the
// serial kernel's exact order.
func TestCol2ImAccumulates(t *testing.T) {
	s := ConvSpec{InC: 3, OutC: 4, Kernel: 3, Stride: 1, Pad: 1, InH: 9, InW: 7}
	cols := col2imCols(s, 2, 55)
	seed := New(2, s.InC, s.InH, s.InW)
	fillSeq(seed, NewRNG(56))
	want := seed.Clone()
	col2imSerial(want.Data(), cols.Data(), s, 2)
	got := seed.Clone()
	Col2ImInto(got, cols, s, 2)
	if i, ok := bitwiseEqual(got, want); !ok {
		t.Fatalf("accumulating Col2ImInto differs from serial at flat index %d", i)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	fn()
}

// TestCol2ImShapeValidation pins the full-shape output check: a same-length
// but mis-shaped destination (the NHWC permutation of the gradient) used to
// pass the old Len()-only validation silently and scatter into the wrong
// layout.
func TestCol2ImShapeValidation(t *testing.T) {
	s := ConvSpec{InC: 3, OutC: 2, Kernel: 3, Stride: 1, Pad: 1, InH: 8, InW: 6}
	const n = 2
	cols := col2imCols(s, n, 77)
	Col2ImInto(New(n, s.InC, s.InH, s.InW), cols, s, n) // correct shape passes

	mustPanic(t, "NHWC-permuted output", func() {
		Col2ImInto(New(n, s.InH, s.InW, s.InC), cols, s, n) // same Len, wrong dims
	})
	mustPanic(t, "flat rank-1 output", func() {
		Col2ImInto(New(n*s.InC*s.InH*s.InW), cols, s, n)
	})
	mustPanic(t, "wrong batch", func() {
		Col2ImInto(New(n+1, s.InC, s.InH, s.InW), cols, s, n)
	})
	mustPanic(t, "mis-shaped cols", func() {
		Col2ImZeroInto(New(n, s.InC, s.InH, s.InW), New(4, 4), s, n)
	})
}

// TestCol2ImIntoZeroAlloc pins the pooled-job dispatch: the conv backward
// calls this once per layer per microbatch and must not allocate.
func TestCol2ImIntoZeroAlloc(t *testing.T) {
	s := ConvSpec{InC: 8, OutC: 8, Kernel: 3, Stride: 1, Pad: 1, InH: 12, InW: 12}
	cols := col2imCols(s, 2, 88)
	out := New(2, s.InC, s.InH, s.InW)
	Col2ImZeroInto(out, cols, s, 2) // warm job pool and workers
	if a := testing.AllocsPerRun(50, func() { Col2ImZeroInto(out, cols, s, 2) }); a != 0 {
		t.Errorf("Col2ImZeroInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { Col2ImInto(out, cols, s, 2) }); a != 0 {
		t.Errorf("Col2ImInto allocates %.1f per call, want 0", a)
	}
}

// BenchmarkCol2Im times the serial scatter against the parallel gather on
// the paper's conv backward shapes at 8 workers — the serial/parallel ratio
// is the col2im speedup matrix in BENCH_kernels.json, gated by
// MIN_COL2IM_SPEEDUP in scripts/bench.sh on multi-core machines.
func BenchmarkCol2Im(b *testing.B) {
	for _, tc := range col2imShapes {
		cols := col2imCols(tc.s, tc.n, 9)
		out := New(tc.n, tc.s.InC, tc.s.InH, tc.s.InW)
		b.Run(fmt.Sprintf("serial/%s", tc.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				zeroSlice(out.Data())
				col2imSerial(out.Data(), cols.Data(), tc.s, tc.n)
			}
		})
		b.Run(fmt.Sprintf("parallel/%s", tc.name), func(b *testing.B) {
			defer SetWorkers(SetWorkers(8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2ImZeroInto(out, cols, tc.s, tc.n)
			}
		})
	}
}
