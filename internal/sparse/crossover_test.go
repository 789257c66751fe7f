package sparse

import "testing"

// TestDensityBands pins the band layout the crossover keys on: the
// evaluation's sparsities {0.5, 0.75, 0.9, 0.95, 0.99} must land in
// distinct bands, and degenerate patterns in band 0.
func TestDensityBands(t *testing.T) {
	const full = 10000
	bands := map[float64]uint8{}
	for _, sparsity := range []float64{0, 0.5, 0.75, 0.9, 0.95, 0.99} {
		bands[sparsity] = densityBand(int(float64(full)*(1-sparsity)), full)
	}
	if bands[0] != 0 {
		t.Errorf("fully dense band = %d, want 0", bands[0])
	}
	seen := map[uint8]float64{}
	for sp, b := range bands {
		if prev, dup := seen[b]; dup {
			t.Errorf("sparsities %.2f and %.2f share band %d", prev, sp, b)
		}
		seen[b] = sp
	}
	if densityBand(0, full) != 0 || densityBand(5, 0) != 0 {
		t.Error("degenerate nnz/full should band 0")
	}
}
