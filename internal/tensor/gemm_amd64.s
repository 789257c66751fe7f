#include "textflag.h"

// AVX2 GEMM micro-kernels. Each keeps its C block in YMM accumulators
// across the whole k extent and updates every element with separate
// VMULPS/VADDPS in the portable kernels' order — c += a0·b0 + a1·b1 per k
// pair, then c += a·b for an odd final k — so results are bitwise-identical
// to gemmMicro4, gemmMicro1 and gemmStrip8. No FMA: a fused multiply-add
// rounds once where the portable code rounds twice.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV               // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX      // AVX2 (leaf 7, EBX bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET

// PAIR(acc, b0, b1) applies one k pair of one A row to one 8-wide
// accumulator: acc += a[k]·b0 + a[k+1]·b1, with the broadcast A pair in
// Y12/Y13 and Y14/Y15 as scratch. SINGLE is the odd final k: acc += a[k]·b0.
#define PAIR(acc, b0, b1) \
	VMULPS b0, Y12, Y14; \
	VMULPS b1, Y13, Y15; \
	VADDPS Y15, Y14, Y14; \
	VADDPS Y14, acc, acc

#define SINGLE(acc, b0) \
	VMULPS b0, Y12, Y14; \
	VADDPS Y14, acc, acc

// func gemmKernel4AVX2(c *float32, ldc int, a *float32, lda int, b *float32, ldb, bjs, kcur, nblk int)
//
// Updates C rows 0..3 (row stride ldc) over nblk 8-wide column blocks:
// block j covers C columns 8j..8j+7 and reads B rows kk at b + j·bjs +
// kk·ldb (all strides in float32 elements). A rows start at a with row
// stride lda. Blocks go two at a time (eight accumulators), then one.
TEXT ·gemmKernel4AVX2(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8
	MOVQ lda+24(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R12
	MOVQ b+32(FP), AX
	MOVQ ldb+40(FP), R10
	SHLQ $2, R10
	MOVQ bjs+48(FP), R11
	SHLQ $2, R11
	MOVQ nblk+64(FP), BX

k4pair:
	CMPQ BX, $2
	JLT  k4one
	LEAQ (DI)(R8*2), CX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (CX), Y4
	VMOVUPS 32(CX), Y5
	VMOVUPS (CX)(R8*1), Y6
	VMOVUPS 32(CX)(R8*1), Y7
	MOVQ a+16(FP), SI
	MOVQ AX, DX
	LEAQ (AX)(R11*1), R13
	MOVQ kcur+56(FP), CX
	SHRQ $1, CX
	JZ   k4pairodd

k4pairloop:
	VMOVUPS (DX), Y8
	VMOVUPS (R13), Y9
	VMOVUPS (DX)(R10*1), Y10
	VMOVUPS (R13)(R10*1), Y11
	VBROADCASTSS (SI), Y12
	VBROADCASTSS 4(SI), Y13
	PAIR(Y0, Y8, Y10)
	PAIR(Y1, Y9, Y11)
	VBROADCASTSS (SI)(R9*1), Y12
	VBROADCASTSS 4(SI)(R9*1), Y13
	PAIR(Y2, Y8, Y10)
	PAIR(Y3, Y9, Y11)
	VBROADCASTSS (SI)(R9*2), Y12
	VBROADCASTSS 4(SI)(R9*2), Y13
	PAIR(Y4, Y8, Y10)
	PAIR(Y5, Y9, Y11)
	VBROADCASTSS (SI)(R12*1), Y12
	VBROADCASTSS 4(SI)(R12*1), Y13
	PAIR(Y6, Y8, Y10)
	PAIR(Y7, Y9, Y11)
	ADDQ $8, SI
	LEAQ (DX)(R10*2), DX
	LEAQ (R13)(R10*2), R13
	DECQ CX
	JNZ  k4pairloop

k4pairodd:
	MOVQ kcur+56(FP), CX
	ANDQ $1, CX
	JZ   k4pairstore
	VMOVUPS (DX), Y8
	VMOVUPS (R13), Y9
	VBROADCASTSS (SI), Y12
	SINGLE(Y0, Y8)
	SINGLE(Y1, Y9)
	VBROADCASTSS (SI)(R9*1), Y12
	SINGLE(Y2, Y8)
	SINGLE(Y3, Y9)
	VBROADCASTSS (SI)(R9*2), Y12
	SINGLE(Y4, Y8)
	SINGLE(Y5, Y9)
	VBROADCASTSS (SI)(R12*1), Y12
	SINGLE(Y6, Y8)
	SINGLE(Y7, Y9)

k4pairstore:
	LEAQ (DI)(R8*2), CX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (CX)
	VMOVUPS Y5, 32(CX)
	VMOVUPS Y6, (CX)(R8*1)
	VMOVUPS Y7, 32(CX)(R8*1)
	ADDQ $64, DI
	LEAQ (AX)(R11*2), AX
	SUBQ $2, BX
	JMP  k4pair

k4one:
	TESTQ BX, BX
	JZ    k4done
	LEAQ (DI)(R8*2), CX
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS (CX), Y4
	VMOVUPS (CX)(R8*1), Y6
	MOVQ a+16(FP), SI
	MOVQ AX, DX
	MOVQ kcur+56(FP), CX
	SHRQ $1, CX
	JZ   k4oneodd

k4oneloop:
	VMOVUPS (DX), Y8
	VMOVUPS (DX)(R10*1), Y10
	VBROADCASTSS (SI), Y12
	VBROADCASTSS 4(SI), Y13
	PAIR(Y0, Y8, Y10)
	VBROADCASTSS (SI)(R9*1), Y12
	VBROADCASTSS 4(SI)(R9*1), Y13
	PAIR(Y2, Y8, Y10)
	VBROADCASTSS (SI)(R9*2), Y12
	VBROADCASTSS 4(SI)(R9*2), Y13
	PAIR(Y4, Y8, Y10)
	VBROADCASTSS (SI)(R12*1), Y12
	VBROADCASTSS 4(SI)(R12*1), Y13
	PAIR(Y6, Y8, Y10)
	ADDQ $8, SI
	LEAQ (DX)(R10*2), DX
	DECQ CX
	JNZ  k4oneloop

k4oneodd:
	MOVQ kcur+56(FP), CX
	ANDQ $1, CX
	JZ   k4onestore
	VMOVUPS (DX), Y8
	VBROADCASTSS (SI), Y12
	SINGLE(Y0, Y8)
	VBROADCASTSS (SI)(R9*1), Y12
	SINGLE(Y2, Y8)
	VBROADCASTSS (SI)(R9*2), Y12
	SINGLE(Y4, Y8)
	VBROADCASTSS (SI)(R12*1), Y12
	SINGLE(Y6, Y8)

k4onestore:
	LEAQ (DI)(R8*2), CX
	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y4, (CX)
	VMOVUPS Y6, (CX)(R8*1)

k4done:
	VZEROUPPER
	RET

// func gemmKernel1AVX2(c *float32, a *float32, b *float32, ldb, bjs, kcur, nblk int)
//
// The single-row form of gemmKernel4AVX2: one C row, one 8-wide block at a
// time.
TEXT ·gemmKernel1AVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b+16(FP), AX
	MOVQ ldb+24(FP), R10
	SHLQ $2, R10
	MOVQ bjs+32(FP), R11
	SHLQ $2, R11
	MOVQ nblk+48(FP), BX

k1blk:
	TESTQ BX, BX
	JZ    k1done
	VMOVUPS (DI), Y0
	MOVQ a+8(FP), SI
	MOVQ AX, DX
	MOVQ kcur+40(FP), CX
	SHRQ $1, CX
	JZ   k1odd

k1loop:
	VMOVUPS (DX), Y8
	VMOVUPS (DX)(R10*1), Y10
	VBROADCASTSS (SI), Y12
	VBROADCASTSS 4(SI), Y13
	PAIR(Y0, Y8, Y10)
	ADDQ $8, SI
	LEAQ (DX)(R10*2), DX
	DECQ CX
	JNZ  k1loop

k1odd:
	MOVQ kcur+40(FP), CX
	ANDQ $1, CX
	JZ   k1store
	VMOVUPS (DX), Y8
	VBROADCASTSS (SI), Y12
	SINGLE(Y0, Y8)

k1store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ R11, AX
	DECQ BX
	JMP  k1blk

k1done:
	VZEROUPPER
	RET
