package sparse

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// spmmtPortable runs SpMMTInto with the portable spmmtChunk kernel.
func spmmtPortable(m *CSR, c, b *tensor.Tensor) {
	prev := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = prev }()
	m.SpMMTInto(c, b)
}

// sameBitsNaN is bitwiseEqualSlice except that any two NaNs match: x86
// takes the first operand's payload when both operands of an add are NaN,
// and the operand order of the portable kernel is the Go compiler's
// register-allocation choice, not part of the contract.
func sameBitsNaN(a, b []float32) (int, bool) {
	for i := range a {
		x, y := a[i], b[i]
		if math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}

// TestSIMDKernelsMatchPortable pins the AVX2 SpMMT panel kernel bitwise to
// spmmtChunk: batch sizes below, at and across the 32-row panel, patterns
// from fully dense to empty (nnz = 0) with empty rows in between, and
// operands holding ±0, subnormals, ±Inf and NaN.
func TestSIMDKernelsMatchPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2 (or the OS does not save YMM state): only the portable kernel runs")
	}
	specials := []float32{0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	rng := tensor.NewRNG(61)
	fill := func(s []float32, withSpecials bool) {
		for i := range s {
			if withSpecials && rng.Intn(16) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for _, n := range []int{1, 5, 31, 32, 33, 64, 100} {
		for _, shape := range [][2]int{{1, 1}, {7, 13}, {40, 33}, {96, 128}} {
			rows, cols := shape[0], shape[1]
			for _, sparsity := range []float64{0.5, 0.9, 0.99, 1} {
				for _, specialsOn := range []bool{false, true} {
					name := fmt.Sprintf("n%d/%dx%d/s%.2f/specials=%v", n, rows, cols, sparsity, specialsOn)
					m, _ := randMaskedCSR(rows, cols, 1-sparsity, rng.Uint64())
					fill(m.Val, specialsOn)
					b := randDense(n, cols, rng.Uint64())
					fill(b.Data(), specialsOn)
					got, want := tensor.New(n, rows), tensor.New(n, rows)
					got.Fill(42)
					want.Fill(-42)
					m.SpMMTInto(got, b)
					spmmtPortable(m, want, b)
					if i, ok := sameBitsNaN(got.Data(), want.Data()); !ok {
						t.Fatalf("%s: AVX2 SpMMT differs from portable at %d: %08x vs %08x", name, i,
							math.Float32bits(got.Data()[i]), math.Float32bits(want.Data()[i]))
					}
				}
			}
		}
	}
}
