package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The AVX2 kernels promise bitwise-identical results to the portable Go
// kernels. The comparison is by math.Float32bits, with one exception: two
// NaNs count as equal whatever their payloads. When both operands of an x86
// add or multiply are NaN, the result carries the first operand's payload,
// and which operand the Go compiler places first is a register-allocation
// choice that even differs between the rows of one portable kernel. Every
// NaN appears in the same elements on both paths, and every other value
// matches bit for bit.

// sameBits reports the first index where a and b differ under that rule.
func sameBits(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
			return i, false
		}
	}
	return -1, true
}

// usePortable clears useAVX2 and returns a func restoring it.
func usePortable() func() {
	prev := useAVX2
	useAVX2 = false
	return func() { useAVX2 = prev }
}

// matchPortable recomputes got with the portable kernels — run writes into
// a copy of seed — and fails unless the two agree bitwise.
func matchPortable(t *testing.T, what string, got, seed *Tensor, run func(c *Tensor)) {
	t.Helper()
	want := seed.Clone()
	restore := usePortable()
	run(want)
	restore()
	if i, ok := sameBits(got.data, want.data); !ok {
		t.Fatalf("%s: SIMD result differs from the portable kernels at %d: %08x vs %08x",
			what, i, math.Float32bits(got.data[i]), math.Float32bits(want.data[i]))
	}
}

// simdFill fills s by regime: 0 uniform in [-1,1]; 1 the same with about one
// value in 16 replaced by a special (±0, ±subnormal, ±Inf, NaN); 2 values
// near 1e-20, whose products are subnormal.
func simdFill(s []float32, rng *RNG, regime int) {
	specials := []float32{0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x00400000),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := range s {
		v := float32(rng.Float64()*2 - 1)
		switch regime {
		case 1:
			if rng.Intn(16) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
		case 2:
			v *= 1e-20
		}
		s[i] = v
	}
}

var (
	simdNcur = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 255, 256, 257}
	simdKcur = []int{1, 2, 3, 17, 512}
)

// TestSIMDKernelsMatchPortable pins each AVX2 kernel bitwise to the Go
// kernel it replaces: the 4-row and 1-row micro-kernels (MatMul direct-B,
// TMatMul panel sweep) with their ragged column tails and odd-k tails, and
// the MatMulT strip sweep (gemmStrip8/gemmStripTail), each over seeded
// (accumulating) and zero C and over special operand values.
func TestSIMDKernelsMatchPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2 (or the OS does not save YMM state): only the portable kernels run")
	}
	rng := NewRNG(97)
	for _, ncur := range simdNcur {
		for _, kcur := range simdKcur {
			for regime := 0; regime < 3; regime++ {
				for _, seeded := range []bool{false, true} {
					name := fmt.Sprintf("n%d/k%d/r%d/seed=%v", ncur, kcur, regime, seeded)
					checkMicroMatch(t, name, rng, ncur, kcur, regime, seeded)
					checkStripMatch(t, name, rng, ncur, kcur, regime, seeded)
				}
			}
		}
	}
}

// checkMicroMatch runs gemmMicro4 (rows 1..4) and gemmMicro1 (row 5) on a
// strided, offset layout — C, A and B all padded so any out-of-block write
// or read shows — against the AVX2 wrappers.
func checkMicroMatch(t *testing.T, name string, rng *RNG, ncur, kcur, regime int, seeded bool) {
	t.Helper()
	const j0, aOff, bOff = 3, 2, 5
	n, aStride, bStride := ncur+j0+2, kcur+3, ncur+7
	a := make([]float32, aOff+5*aStride+kcur)
	b := make([]float32, bOff+kcur*bStride)
	c := make([]float32, 7*n)
	simdFill(a, rng, regime)
	simdFill(b, rng, regime)
	if seeded {
		simdFill(c, rng, regime)
	}
	want := append([]float32(nil), c...)
	gemmMicro4(want, a, b, aOff, aStride, bOff, bStride, 1, n, kcur, j0, ncur)
	gemmMicro1(want, a, b, aOff+4*aStride, aStride, bOff, bStride, 5, n, kcur, j0, ncur)
	gemmMicro4AVX2(c, a, b, aOff, aStride, bOff, bStride, 1, n, kcur, j0, ncur)
	gemmMicro1AVX2(c, a, b, aOff+4*aStride, aStride, bOff, bStride, 5, n, kcur, j0, ncur)
	if i, ok := sameBits(c, want); !ok {
		t.Fatalf("%s: micro-kernel differs from portable at C[%d]: %08x vs %08x",
			name, i, math.Float32bits(c[i]), math.Float32bits(want[i]))
	}
}

// checkStripMatch runs the strip sweep over six C rows (one 4-row group and
// two single rows) of a strip-packed panel, seeded either by accumulate or
// by a later k panel (k0 > 0), with the portable and the AVX2 kernels.
func checkStripMatch(t *testing.T, name string, rng *RNG, ncur, kcur, regime int, seeded bool) {
	t.Helper()
	const m, j0 = 6, 2
	k0 := 0
	if seeded && kcur%2 == 1 {
		k0 = 4 // seed through the panel offset instead of accumulate
	}
	n, k := ncur+j0+1, k0+kcur+1
	g := &panelJob{
		a: make([]float32, m*k), c: make([]float32, m*n),
		pb: make([]float32, (ncur+7)&^7*kcur),
		m:  m, k: k, n: n, k0: k0, kcur: kcur, j0: j0, ncur: ncur,
		accumulate: seeded && k0 == 0,
	}
	simdFill(g.a, rng, regime)
	simdFill(g.pb, rng, regime)
	simdFill(g.c, rng, regime)
	want := append([]float32(nil), g.c...)
	gemmStripSweepAVX2(g, 0, m)
	got := g.c
	g.c = want
	restore := usePortable()
	gemmStripSweepChunk(g, 0, m)
	restore()
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("%s: strip sweep differs from portable at C[%d]: %08x vs %08x",
			name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}
