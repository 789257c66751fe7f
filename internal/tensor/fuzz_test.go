package tensor

import (
	"math"
	"testing"
)

// FuzzMatMulInto drives both forward GEMM dispatch paths — the saxpy
// small-shape kernel and the direct-B micro-kernel — against the naive
// triple loop over fuzzer-chosen shapes, and pins the result bitwise to
// the portable kernels (a no-op comparison where AVX2 is absent). Shapes
// are folded into ranges that cross the dispatch boundaries (m around
// gemmMR and the size gate, k around the direct-B block height).
func FuzzMatMulInto(f *testing.F) {
	// Seeded degenerate corpus: dispatch-gate boundaries, micro-kernel
	// remainders, block crossings, empty dims.
	f.Add(uint16(0), uint16(8), uint16(8), uint64(1), false)
	f.Add(uint16(1), uint16(16), uint16(16), uint64(2), false)   // m=1: saxpy
	f.Add(uint16(3), uint16(15), uint16(17), uint64(3), true)    // below the size gate: saxpy
	f.Add(uint16(4), uint16(16), uint16(16), uint64(4), false)   // exactly at the size gate
	f.Add(uint16(5), uint16(129), uint16(130), uint64(5), false) // odd k, odd n
	f.Add(uint16(8), uint16(257), uint16(129), uint64(6), true)  // kc=256 crossing
	f.Add(uint16(7), uint16(300), uint16(9), uint64(7), false)   // micro-kernel row remainder
	f.Add(uint16(40), uint16(300), uint16(200), uint64(8), false)
	f.Add(uint16(47), uint16(319), uint16(223), uint64(9), true) // max folded shape
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%48), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(m, k), New(k, n)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refMatMul(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		got := cSeed.Clone()
		MatMulInto(got, a, b, accumulate)
		if d := MaxAbsDiff(got, want); d > tol(k) {
			t.Fatalf("MatMulInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
		}
		matchPortable(t, "MatMulInto", got, cSeed, func(c *Tensor) { MatMulInto(c, a, b, accumulate) })
	})
}

// FuzzMatMulTInto drives the C = A·Bᵀ dispatcher — the tiled small-shape
// kernel and the shared-pack strip pipeline — against the naive triple
// loop over fuzzer-chosen shapes, with the same dispatch-boundary folding
// and bitwise-vs-portable pin as FuzzMatMulInto.
func FuzzMatMulTInto(f *testing.F) {
	seedTransposedCorpus(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%320), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(m, k), New(n, k)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refMatMulT(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		got := cSeed.Clone()
		MatMulTInto(got, a, b, accumulate)
		if d := MaxAbsDiff(got, want); d > tol(k) {
			t.Fatalf("MatMulTInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
		}
		matchPortable(t, "MatMulTInto", got, cSeed, func(c *Tensor) { MatMulTInto(c, a, b, accumulate) })
	})
}

// FuzzTMatMulInto is FuzzMatMulTInto's twin for C = Aᵀ·B, which
// exercises the per-block Aᵀ transpose-pack and the panel pipeline.
func FuzzTMatMulInto(f *testing.F) {
	seedTransposedCorpus(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%320), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(k, m), New(k, n)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refTMatMul(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		got := cSeed.Clone()
		TMatMulInto(got, a, b, accumulate)
		if d := MaxAbsDiff(got, want); d > tol(k) {
			t.Fatalf("TMatMulInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
		}
		matchPortable(t, "TMatMulInto", got, cSeed, func(c *Tensor) { TMatMulInto(c, a, b, accumulate) })
	})
}

// seedTransposedCorpus seeds the degenerate corpus shared by both
// transposed-GEMM fuzz targets: dispatch-gate boundaries (the tiled
// fallback below m=4 / k,n=16), micro-kernel and strip-tail remainders,
// panel-boundary crossings (both transpose-packs have per-panel state),
// row-block boundaries (m past 256 splits the TMatMul Aᵀ pack at the
// packBufCap/kc bound), and empty dims.
func seedTransposedCorpus(f *testing.F) {
	f.Add(uint16(0), uint16(8), uint16(8), uint64(1), false)
	f.Add(uint16(1), uint16(16), uint16(16), uint64(2), false)   // m=1: tiled remainder row
	f.Add(uint16(3), uint16(15), uint16(17), uint64(3), true)    // below the size gate: tiled
	f.Add(uint16(4), uint16(16), uint16(16), uint64(4), false)   // exactly at the size gate
	f.Add(uint16(5), uint16(129), uint16(130), uint64(5), false) // odd k, 2-wide strip tail
	f.Add(uint16(8), uint16(257), uint16(129), uint64(6), true)  // odd k, 1-wide strip tail
	f.Add(uint16(7), uint16(300), uint16(9), uint64(7), false)   // one full strip + 1-wide tail
	f.Add(uint16(40), uint16(300), uint16(200), uint64(8), false)
	f.Add(uint16(33), uint16(319), uint16(130), uint64(9), true) // odd k: global pairwise tail
	f.Add(uint16(150), uint16(300), uint16(40), uint64(10), true)
	f.Add(uint16(300), uint16(319), uint16(66), uint64(11), true) // m crosses the TMatMul row-block bound (256)
	f.Add(uint16(319), uint16(318), uint16(223), uint64(12), true)
}

// FuzzCol2ImAdjoint checks the defining property of the backward lowering —
// <Im2Col(x), y> == <x, Col2Im(y)> for adjoint linear maps — over random
// kernel/stride/pad geometry, and pins the parallel Col2Im gather bitwise
// to the serial scatter at several worker counts on every fuzzed geometry.
func FuzzCol2ImAdjoint(f *testing.F) {
	// Seeded degenerate corpus: 1×1 kernels, stride > kernel (gap rows),
	// pad 0 and pad ≥ kernel, non-square inputs, minimum 1×1 output.
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), uint8(1), uint8(5), uint8(5), uint64(2))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(3), uint8(0), uint8(6), uint8(2), uint64(3)) // stride 3 > k: gap rows
	f.Add(uint8(2), uint8(4), uint8(5), uint8(2), uint8(2), uint8(9), uint8(3), uint64(4))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(1), uint8(3), uint8(0), uint8(7), uint64(5)) // pad == k
	f.Fuzz(func(t *testing.T, nr, cr, kr, sr, pr, hr, wr uint8, seed uint64) {
		n := 1 + int(nr%2)
		inC := 1 + int(cr%4)
		k := 1 + int(kr%5)
		stride := 1 + int(sr%3)
		pad := int(pr % 4)
		inH := k + int(hr%10)
		inW := k + int(wr%10)
		s := ConvSpec{InC: inC, OutC: 1, Kernel: k, Stride: stride, Pad: pad, InH: inH, InW: inW}
		if s.OutH() < 1 || s.OutW() < 1 {
			t.Skip("degenerate output")
		}
		rng := NewRNG(seed | 1)
		x := New(n, inC, inH, inW)
		fillSeq(x, rng)
		cols := Im2Col(x, s)
		y := New(cols.Dim(0), cols.Dim(1))
		fillSeq(y, rng)

		lhs := Dot(cols, y)
		back := Col2Im(y, s, n)
		rhs := Dot(x, back)
		if scale := math.Abs(lhs) + math.Abs(rhs) + 1; math.Abs(lhs-rhs) > 1e-4*scale {
			t.Fatalf("adjoint identity violated for %+v n=%d: <Im2Col(x),y>=%g vs <x,Col2Im(y)>=%g",
				s, n, lhs, rhs)
		}

		ref := New(n, inC, inH, inW)
		col2imSerial(ref.Data(), y.Data(), s, n)
		defer SetWorkers(SetWorkers(0))
		for _, w := range []int{1, 2, 3, 8} {
			SetWorkers(w)
			out := New(n, inC, inH, inW)
			Col2ImInto(out, y, s, n)
			if i, ok := bitwiseEqual(out, ref); !ok {
				t.Fatalf("workers=%d %+v: parallel Col2Im differs from serial at index %d", w, s, i)
			}
		}
	})
}
