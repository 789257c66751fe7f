package sparse

//go:noescape
func spmmtPanelAVX2(out, panel []float32, rowPtr, colIdx []int32, val []float32)

//go:noescape
func transposeAVX2(dst []float32, ldd int, src []float32, lds, nr, nc int)
