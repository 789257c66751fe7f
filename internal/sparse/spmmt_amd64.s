#include "textflag.h"

// func spmmtPanelAVX2(out, panel []float32, rowPtr, colIdx []int32, val []float32)
//
// For every sparse row j and each of the 32 batch lanes r of a k-major
// panel (panel[c·32 + r] = B[i0+r][c]) it computes
// out[j·32 + r] = Σ_p val[p]·panel[colIdx[p]·32 + r] over the row's p range
// in CSR order: four 8-wide accumulators start at +0 and take one VMULPS
// and one VADDPS per nonzero, exactly spmmtChunk's s += v·b sequence, so
// every lane is bitwise-identical to the portable kernel. The caller
// guarantees RowPtr is monotone within val and every column index is below
// the panel's k.
TEXT ·spmmtPanelAVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ panel_base+24(FP), SI
	MOVQ rowPtr_base+48(FP), R8
	MOVQ rowPtr_len+56(FP), BX
	MOVQ colIdx_base+72(FP), R9
	MOVQ val_base+96(FP), R10
	DECQ BX
	JLE  done
	MOVLQSX (R8), AX

row:
	MOVLQSX 4(R8), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ AX, CX
	JGE  store

nz:
	MOVLQSX (R9)(AX*4), DX
	SHLQ $7, DX
	VBROADCASTSS (R10)(AX*4), Y4
	VMULPS (SI)(DX*1), Y4, Y5
	VMULPS 32(SI)(DX*1), Y4, Y6
	VMULPS 64(SI)(DX*1), Y4, Y7
	VMULPS 96(SI)(DX*1), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	INCQ AX
	CMPQ AX, CX
	JLT  nz

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $4, R8
	MOVQ CX, AX
	DECQ BX
	JNZ  row

done:
	VZEROUPPER
	RET

// func transposeAVX2(dst []float32, ldd int, src []float32, lds, nr, nc int)
//
// Writes dst[c·ldd + r] = src[r·lds + c] for r < nr, c < nc (both multiples
// of 8) in 8×8 tiles: eight row loads, an unpack/shuffle/permute transpose
// in registers, eight column stores. A pure copy: no arithmetic.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R12
	SHLQ $2, R12
	MOVQ src_base+32(FP), SI
	MOVQ lds+56(FP), R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R11
	MOVQ nr+64(FP), BX

trow:
	CMPQ BX, $8
	JLT  tdone
	MOVQ SI, R8
	LEAQ (SI)(R10*4), R9
	MOVQ DI, DX
	MOVQ nc+72(FP), CX

tcol:
	CMPQ CX, $8
	JLT  tnext
	VMOVUPS (R8), Y0
	VMOVUPS (R8)(R10*1), Y1
	VMOVUPS (R8)(R10*2), Y2
	VMOVUPS (R8)(R11*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(R10*1), Y5
	VMOVUPS (R9)(R10*2), Y6
	VMOVUPS (R9)(R11*1), Y7
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	MOVQ DX, AX
	VMOVUPS Y8, (AX)
	ADDQ R12, AX
	VMOVUPS Y9, (AX)
	ADDQ R12, AX
	VMOVUPS Y10, (AX)
	ADDQ R12, AX
	VMOVUPS Y11, (AX)
	ADDQ R12, AX
	VMOVUPS Y12, (AX)
	ADDQ R12, AX
	VMOVUPS Y13, (AX)
	ADDQ R12, AX
	VMOVUPS Y14, (AX)
	ADDQ R12, AX
	VMOVUPS Y15, (AX)
	ADDQ $32, R8
	ADDQ $32, R9
	LEAQ (AX)(R12*1), DX
	SUBQ $8, CX
	JMP  tcol

tnext:
	LEAQ (SI)(R10*8), SI
	ADDQ $32, DI
	SUBQ $8, BX
	JMP  trow

tdone:
	VZEROUPPER
	RET
