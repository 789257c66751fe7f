package fp16

import "testing"

// TestSliceConvertersZeroAlloc pins the pooled-dispatch contract on the
// parallel slice converters (they back Half storage on the mixed-precision
// paths).
func TestSliceConvertersZeroAlloc(t *testing.T) {
	src := make([]float32, 1<<16)
	dst := make([]Bits, len(src))
	back := make([]float32, len(src))
	for i := range src {
		src[i] = float32(i%1000) / 999
	}
	FromSlice(dst, src) // warm pools
	ToSlice(back, dst)
	if a := testing.AllocsPerRun(50, func() { FromSlice(dst, src) }); a != 0 {
		t.Fatalf("FromSlice allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { ToSlice(back, dst) }); a != 0 {
		t.Fatalf("ToSlice allocates %.1f per call, want 0", a)
	}
}
