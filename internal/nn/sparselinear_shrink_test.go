package nn

import (
	"reflect"
	"testing"

	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

var _ PatternLayer = (*SparseLinear)(nil)

// TestShrinkPatternMatchesFreshLayer shrinks a live layer in place and
// compares every structure bitwise against a layer built directly from the
// shrunk pattern: same CSR, same cached transpose and refresh permutation,
// same parameter values — and the same backing arrays as before the shrink.
func TestShrinkPatternMatchesFreshLayer(t *testing.T) {
	_, sl, _ := sparsePair(12, 9, 0.5, 31)
	nnz := sl.NNZ()
	keep := make([]bool, nnz)
	for i := range keep {
		keep[i] = i%3 != 0 // drop every third stored position
	}
	valHead := &sl.W.Val[0]
	wtValHead := &sl.Wt.Val[0]

	// Fresh reference: a layer built from the already-shrunk pattern.
	denseW := tensor.Transpose(sl.W.Dense()) // (in, out) view
	kept := sl.W.LinearIDs()
	var keptIDs []int32
	for i, k := range keep {
		if k {
			keptIDs = append(keptIDs, kept[i])
		}
	}
	// LinearIDs are (out, in)-view; NewSparseLinear wants (in, out)-view ids.
	var inOutIDs []int32
	for _, id := range keptIDs {
		r, c := int(id)/12, int(id)%12 // (out, in) coords
		inOutIDs = append(inOutIDs, int32(c*9+r))
	}
	want := NewSparseLinear("fc", denseW, sparse.IndexFromSlice(sortedInt32(inOutIDs), 12*9))

	sl.ShrinkPattern(keep)

	if !reflect.DeepEqual(sl.W.RowPtr, want.W.RowPtr) ||
		!reflect.DeepEqual(sl.W.ColIdx, want.W.ColIdx) ||
		!reflect.DeepEqual(sl.W.Val, want.W.Val) {
		t.Fatal("shrunk CSR differs from freshly built layer")
	}
	if !reflect.DeepEqual(sl.Wt.RowPtr, want.Wt.RowPtr) ||
		!reflect.DeepEqual(sl.Wt.ColIdx, want.Wt.ColIdx) ||
		!reflect.DeepEqual(sl.Wt.Val, want.Wt.Val) {
		t.Fatal("refreshed transpose differs from freshly built layer")
	}
	if !reflect.DeepEqual(sl.wtPerm, want.wtPerm) {
		t.Fatalf("refresh permutation %v differs from fresh %v", sl.wtPerm, want.wtPerm)
	}
	if &sl.W.Val[0] != valHead || &sl.Wt.Val[0] != wtValHead {
		t.Fatal("ShrinkPattern reallocated CSR backing arrays")
	}
	if sl.Wv.Value.Len() != len(sl.W.Val) || &sl.Wv.Value.Data()[0] != &sl.W.Val[0] {
		t.Fatal("Wv.Value no longer aliases W.Val after shrink")
	}
}

// TestShrinkPatternRefreshesTransposeCache is the staleness golden for the
// cached-transpose path: shrink the pattern between two forward/backward
// pairs and verify the input gradient equals the dense reference computed
// from the SHRUNK weights — a stale Wt (the pre-shrink pattern or values)
// would produce the old product.
func TestShrinkPatternRefreshesTransposeCache(t *testing.T) {
	_, sl, _ := sparsePair(10, 8, 0.5, 41)
	x := tensor.New(4, 10)
	tensor.FillNormal(x, 1, tensor.NewRNG(42))
	gy := tensor.New(4, 8)
	tensor.FillNormal(gy, 1, tensor.NewRNG(43))

	// Prime the transpose cache with the pre-shrink pattern.
	_, c := sl.Forward(nil, x, true)
	sl.Backward(nil, c, gy)

	keep := make([]bool, sl.NNZ())
	for i := range keep {
		keep[i] = i%2 == 0
	}
	sl.ShrinkPattern(keep)

	sl.Wv.Grad.Zero()
	sl.B.Grad.Zero()
	y, c := sl.Forward(nil, x, true)
	dx := sl.Backward(nil, c, gy)

	wantY := tensor.MatMulT(x, sl.W.Dense())
	for i, b := range sl.B.Value.Data() {
		for r := 0; r < 4; r++ {
			wantY.Data()[r*8+i] += b
		}
	}
	if d := tensor.MaxAbsDiff(y, wantY); d > 1e-4 {
		t.Fatalf("forward after shrink differs from dense reference by %g", d)
	}
	wantDx := tensor.MatMul(gy, sl.W.Dense())
	if d := tensor.MaxAbsDiff(dx, wantDx); d > 1e-4 {
		t.Fatalf("input gradient after shrink differs by %g — stale cached transpose", d)
	}
}

// TestShrinkPatternToEmpty drives the layer to a fully-pruned pattern and
// runs a forward/backward through it: outputs are bias-only, the input
// gradient is zero, nothing panics.
func TestShrinkPatternToEmpty(t *testing.T) {
	_, sl, _ := sparsePair(6, 5, 0.5, 51)
	sl.ShrinkPattern(make([]bool, sl.NNZ()))
	if sl.NNZ() != 0 {
		t.Fatalf("NNZ = %d after full shrink", sl.NNZ())
	}
	if ids := sl.PatternIDs(); len(ids) != 0 {
		t.Fatalf("PatternIDs = %v, want empty", ids)
	}
	x := tensor.New(3, 6)
	tensor.FillNormal(x, 1, tensor.NewRNG(52))
	gy := tensor.New(3, 5)
	gy.Fill(1)
	y, c := sl.Forward(nil, x, true)
	for r := 0; r < 3; r++ {
		for j := 0; j < 5; j++ {
			if got, want := y.Data()[r*5+j], sl.B.Value.Data()[j]; got != want {
				t.Fatalf("y[%d,%d] = %g, want bias %g", r, j, got, want)
			}
		}
	}
	dx := sl.Backward(nil, c, gy)
	for i, v := range dx.Data() {
		if v != 0 {
			t.Fatalf("dx[%d] = %g through an empty pattern, want 0", i, v)
		}
	}
}

func sortedInt32(s []int32) []int32 {
	out := append([]int32(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
