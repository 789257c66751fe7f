package sparse

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// randMaskedCSR builds a rows×cols CSR with ~density fraction of entries
// kept, values in (-1, 1), plus the dense tensor it represents.
func randMaskedCSR(rows, cols int, density float64, seed uint64) (*CSR, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	d := tensor.New(rows, cols)
	dd := d.Data()
	for i := range dd {
		if rng.Float64() < density {
			v := float32(rng.Float64()*2 - 1)
			if v == 0 {
				v = 0.5 // keep the pattern: exact zeros would be dropped
			}
			dd[i] = v
		}
	}
	return CSRFromDense(d), d
}

func randDense(rows, cols int, seed uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	t := tensor.New(rows, cols)
	td := t.Data()
	for i := range td {
		td[i] = float32(rng.Float64()*2 - 1)
	}
	return t
}

// TestSpMMGolden pins SpMM and SpMMInto against the dense reference
// S_dense·B computed by tensor.MatMul, over shapes that cross the
// csrRowGrain chunking in both directions (few heavy rows, many light
// rows) and degenerate n=1.
func TestSpMMGolden(t *testing.T) {
	for _, s := range [][3]int{{7, 9, 5}, {64, 48, 32}, {130, 65, 1}, {33, 129, 17}} {
		rows, cols, n := s[0], s[1], s[2]
		for _, density := range []float64{0.05, 0.3, 0.9} {
			t.Run(fmt.Sprintf("%dx%dx%d/d%.2f", rows, cols, n, density), func(t *testing.T) {
				m, dense := randMaskedCSR(rows, cols, density, uint64(rows*1000+n))
				b := randDense(cols, n, uint64(cols))
				want := tensor.MatMul(dense, b)
				got := m.SpMM(b)
				if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
					t.Fatalf("SpMM differs from dense by %g", d)
				}
				// Into with a dirty buffer must fully overwrite it.
				into := tensor.New(rows, n)
				into.Fill(42)
				m.SpMMInto(into, b)
				if d := tensor.MaxAbsDiff(into, want); d > 1e-4 {
					t.Fatalf("SpMMInto differs from dense by %g", d)
				}
			})
		}
	}
}

// TestSDDMMGolden pins SDDMM and SDDMMInto against the dense reference:
// out values must equal (A·Bᵀ) sampled at the mask pattern.
func TestSDDMMGolden(t *testing.T) {
	for _, s := range [][3]int{{7, 9, 5}, {64, 48, 32}, {130, 65, 3}, {33, 129, 17}} {
		rows, cols, k := s[0], s[1], s[2]
		for _, density := range []float64{0.05, 0.3, 0.9} {
			t.Run(fmt.Sprintf("%dx%dx%d/d%.2f", rows, cols, k, density), func(t *testing.T) {
				m, _ := randMaskedCSR(rows, cols, density, uint64(rows*77+k))
				a := randDense(rows, k, uint64(rows))
				b := randDense(cols, k, uint64(cols))
				want := tensor.MatMulT(a, b) // (rows, cols) dense A·Bᵀ
				out := m.SDDMM(a, b)
				for i := 0; i < m.Rows; i++ {
					for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
						w := want.At(i, int(m.ColIdx[p]))
						if d := out.Val[p] - w; d > 1e-4 || d < -1e-4 {
							t.Fatalf("SDDMM val (%d,%d): %g want %g", i, m.ColIdx[p], out.Val[p], w)
						}
					}
				}
				vals := make([]float32, m.NNZ())
				m.SDDMMInto(vals, a, b, false)
				for p, v := range out.Val {
					if vals[p] != v {
						t.Fatalf("SDDMMInto diverges from SDDMM at %d: %g vs %g", p, vals[p], v)
					}
				}
				// The accumulating form adds the same product on top.
				m.SDDMMInto(vals, a, b, true)
				for p, v := range out.Val {
					if vals[p] != 2*v {
						t.Fatalf("SDDMMInto(acc) at %d: %g want %g", p, vals[p], 2*v)
					}
				}
			})
		}
	}
}

// TestSpMMTGolden pins the transposed-CSR SpMM — C = B·Sᵀ, the product the
// sparse FC forward and input-gradient passes take — against the dense
// reference tensor.MatMulT(B, S_dense), over shapes crossing the row-grain
// chunking and degenerate n=1.
func TestSpMMTGolden(t *testing.T) {
	for _, s := range [][3]int{{7, 9, 5}, {64, 48, 32}, {130, 65, 1}, {33, 129, 17}} {
		rows, cols, n := s[0], s[1], s[2]
		for _, density := range []float64{0.05, 0.3, 0.9} {
			t.Run(fmt.Sprintf("%dx%dx%d/d%.2f", rows, cols, n, density), func(t *testing.T) {
				m, dense := randMaskedCSR(rows, cols, density, uint64(rows*31+n))
				b := randDense(n, cols, uint64(cols+1))
				want := tensor.MatMulT(b, dense) // (n, rows)
				got := m.SpMMT(b)
				if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
					t.Fatalf("SpMMT differs from dense by %g", d)
				}
				// Into with a dirty buffer must fully overwrite it.
				into := tensor.New(n, rows)
				into.Fill(42)
				m.SpMMTInto(into, b)
				if d := tensor.MaxAbsDiff(into, want); d > 1e-4 {
					t.Fatalf("SpMMTInto differs from dense by %g", d)
				}
			})
		}
	}
}

// TestDenseIntoGolden pins the parallel expansion against the matrix it
// came from at several worker counts: a destination full of stale values
// must come back holding exactly the stored entries and zeros elsewhere.
func TestDenseIntoGolden(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	for _, sh := range []struct {
		rows, cols int
		density    float64
	}{{1, 1, 1}, {7, 13, 0.5}, {128, 96, 0.1}, {300, 257, 0.75}, {64, 64, 0}} {
		w, want := randMaskedCSR(sh.rows, sh.cols, sh.density, uint64(sh.rows*sh.cols))
		for _, workers := range []int{1, 2, 3, 8} {
			tensor.SetWorkers(workers)
			got := tensor.New(sh.rows, sh.cols)
			got.Fill(7)
			w.DenseInto(got)
			for i, v := range want.Data() {
				if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("%dx%d workers=%d: element %d = %g, want %g",
						sh.rows, sh.cols, workers, i, got.Data()[i], v)
				}
			}
		}
	}
}

// TestTransposePermAndLinearIDs pins the structure helpers the cached-
// transpose refresh and the dense-masked materialization rely on:
// TransposePerm's permutation must reproduce the transpose's values from
// the primary's (so a value-only Gather refresh is exact), and LinearIDs
// must be the strictly increasing row-major ids of the pattern (so it is a
// valid IndexFromSlice input whose Expand rebuilds Dense()).
func TestTransposePermAndLinearIDs(t *testing.T) {
	m, _ := randMaskedCSR(23, 17, 0.3, 99)
	wt, perm := m.TransposePerm()
	ref := m.Transpose()
	for p := range ref.Val {
		if wt.ColIdx[p] != ref.ColIdx[p] || wt.Val[p] != ref.Val[p] {
			t.Fatalf("TransposePerm structure diverges from Transpose at %d", p)
		}
		if got := m.Val[perm[p]]; got != ref.Val[p] {
			t.Fatalf("perm[%d]: primary value %g, want %g", p, got, ref.Val[p])
		}
	}
	// A refresh after mutating the primary values must track exactly.
	for i := range m.Val {
		m.Val[i] *= 2
	}
	Gather(wt.Val, m.Val, perm)
	ref2 := m.Transpose()
	for p := range ref2.Val {
		if wt.Val[p] != ref2.Val[p] {
			t.Fatalf("refreshed transpose value %d: %g want %g", p, wt.Val[p], ref2.Val[p])
		}
	}

	ids := m.LinearIDs()
	ix := IndexFromSlice(ids, m.Rows*m.Cols) // panics if not sorted unique
	back := tensor.New(m.Rows, m.Cols)
	ix.Expand(back.Data(), m.Val)
	if d := tensor.MaxAbsDiff(back, m.Dense()); d != 0 {
		t.Fatalf("LinearIDs scatter does not rebuild Dense(): diff %g", d)
	}
}

// TestCSRRowGrain sanity-checks the reasoned chunking: heavy rows shrink
// the grain toward 1, light rows grow it so a chunk still holds ~ixGrain
// scalar ops.
func TestCSRRowGrain(t *testing.T) {
	if g := csrRowGrain(100, 100*ixGrain); g != 1 {
		t.Errorf("heavy rows: grain %d, want 1", g)
	}
	if g := csrRowGrain(1000, 1000); g < 100 {
		t.Errorf("light rows: grain %d, want large", g)
	}
	if g := csrRowGrain(0, 0); g != 1 {
		t.Errorf("degenerate: grain %d, want 1", g)
	}
}
