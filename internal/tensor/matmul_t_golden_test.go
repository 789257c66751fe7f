package tensor

import (
	"fmt"
	"testing"
)

// TestGEMMTransposedCandidatesGolden pins the transposed dispatchers — B
// transpose-packed for C = A·Bᵀ, A transpose-packed for C = Aᵀ·B —
// against the naive references at the same degenerate shapes the forward
// product is pinned on, plain and accumulating, under a worker count
// larger than m for the small shapes.
func TestGEMMTransposedCandidatesGolden(t *testing.T) {
	old := SetWorkers(8)
	defer SetWorkers(old)
	rng := NewRNG(52)
	// The forward v2Shapes plus the transposed-only edges: m past 256
	// splits the TMatMul Aᵀ pack into row blocks at the packBufCap/kc bound.
	shapes := append(append([][3]int{}, v2Shapes...), [3]int{300, 520, 40}, [3]int{270, 600, 72})
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("NT/%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(m, k), New(n, k)
			fillSeq(a, rng)
			fillSeq(b, rng)
			checkTransposed(t, MatMulTInto, a, b, refMatMulT(a, b), m, k, n, rng)
		})
		t.Run(fmt.Sprintf("TN/%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(k, m), New(k, n)
			fillSeq(a, rng)
			fillSeq(b, rng)
			checkTransposed(t, TMatMulInto, a, b, refTMatMul(a, b), m, k, n, rng)
		})
	}
}

func checkTransposed(t *testing.T, into func(c, a, b *Tensor, accumulate bool), a, b, want *Tensor, m, k, n int, rng *RNG) {
	t.Helper()
	got := New(m, n)
	into(got, a, b, false)
	if d := MaxAbsDiff(got, want); d > tol(k) {
		t.Fatalf("differs from naive by %g", d)
	}
	// Accumulating form: C = seed + product.
	acc := New(m, n)
	fillSeq(acc, rng)
	wantAcc := acc.Clone()
	Add(wantAcc, want)
	into(acc, a, b, true)
	if d := MaxAbsDiff(acc, wantAcc); d > tol(k) {
		t.Fatalf("accumulate: differs by %g", d)
	}
}

// determinismShapes are the products the worker-count determinism golden
// runs on, named <op>/<case> with op NN (MatMul), NT (MatMulT) or TN
// (TMatMul): the Figure-1 FC shapes (batch 576 and the small-m regime),
// and the forward and backward shapes of the benchmark's GPT.
var determinismShapes = []struct {
	name    string
	m, k, n int
}{
	{"NN/forward_576x128", 576, 128, 128},
	{"NN/forward_8x512", 8, 512, 512},
	{"NN/bench_32x64x256", 32, 64, 256},
	{"NN/bench_128x256x64", 128, 256, 64},
	{"NT/input_grad_576x128", 576, 128, 128},
	{"NT/input_grad_8x512", 8, 512, 512},
	{"NT/bench_32x256x64", 32, 256, 64},
	{"TN/weight_grad_128x576", 128, 576, 128},
	{"TN/weight_grad_16x576x512", 16, 576, 512},
	{"TN/bench_256x32x64", 256, 32, 64},
}

// TestTransposedGEMMBitwiseDeterminism pins every GEMM-family dispatcher —
// MatMul, MatMulT and TMatMul — to its own one-worker output BITWISE at
// every worker count the training stack uses, the same contract col2im
// carries: resizing the pool can never perturb a forward or backward pass.
func TestTransposedGEMMBitwiseDeterminism(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	for _, tc := range determinismShapes {
		t.Run(tc.name, func(t *testing.T) {
			rng := NewRNG(53)
			var a, b *Tensor
			var into func(c, a, b *Tensor, accumulate bool)
			switch tc.name[:2] {
			case "NN":
				a, b, into = New(tc.m, tc.k), New(tc.k, tc.n), MatMulInto
			case "NT":
				a, b, into = New(tc.m, tc.k), New(tc.n, tc.k), MatMulTInto
			case "TN":
				a, b, into = New(tc.k, tc.m), New(tc.k, tc.n), TMatMulInto
			}
			fillSeq(a, rng)
			fillSeq(b, rng)
			SetWorkers(1)
			ref := New(tc.m, tc.n)
			into(ref, a, b, false)
			for _, w := range []int{1, 2, 3, 4, 8, 16} {
				SetWorkers(w)
				out := New(tc.m, tc.n)
				into(out, a, b, false)
				if i, ok := bitwiseEqual(out, ref); !ok {
					t.Fatalf("workers=%d: differs from the one-worker result at index %d", w, i)
				}
			}
		})
	}
}

// TestGemmPackATTiledGolden pins the tiled (32×32-block) Aᵀ transpose-pack
// bitwise to the per-element gather it replaced: the pack is pure data
// relocation, so every packed element must match
// a[(k0+kk)·m + i0+ii] exactly — including ragged tiles, offset (i0, k0)
// blocks and the full pooled-buffer block — and chunked invocation (how
// parallel.Run drives it) must produce the same bytes as one chunk.
func TestGemmPackATTiledGolden(t *testing.T) {
	rng := NewRNG(61)
	for _, s := range []struct{ m, k, i0, mcur, k0, kcur int }{
		{64, 64, 0, 64, 0, 64},
		{100, 300, 0, 100, 0, 256},
		{300, 520, 128, 172, 256, 264}, // ragged tiles, offset block
		{37, 45, 5, 31, 7, 33},
		{256, 512, 0, 256, 0, 512}, // exactly fills the pooled buffer
	} {
		a := New(s.k, s.m) // TMatMul's A operand is (k, m)
		fillSeq(a, rng)
		got := make([]float32, s.mcur*s.kcur)
		j := panelJobFree.Get()
		j.a, j.m = a.data, s.m
		j.i0, j.k0, j.kcur = s.i0, s.k0, s.kcur
		j.pa = got
		gemmPackATChunk(j, 0, s.mcur)
		for ii := 0; ii < s.mcur; ii++ {
			for kk := 0; kk < s.kcur; kk++ {
				want := a.data[(s.k0+kk)*s.m+s.i0+ii]
				if got[ii*s.kcur+kk] != want {
					t.Fatalf("%+v: packed (%d,%d) = %g, gather reference %g",
						s, ii, kk, got[ii*s.kcur+kk], want)
				}
			}
		}
		// Chunked invocation with an uneven split must relocate identically.
		chunked := make([]float32, s.mcur*s.kcur)
		j.pa = chunked
		cut := s.mcur/3 + 1
		gemmPackATChunk(j, 0, cut)
		gemmPackATChunk(j, cut, s.mcur)
		for i := range got {
			if chunked[i] != got[i] {
				t.Fatalf("%+v: chunked pack differs at %d", s, i)
			}
		}
		j.a, j.pa = nil, nil
		panelJobFree.Put(j)
	}
}
