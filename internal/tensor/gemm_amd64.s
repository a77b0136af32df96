#include "textflag.h"

// AVX register kernels of gemm_tiled.go. Every lane runs exactly the
// float32 sequence of the naive core for its output element: VMULPS then
// VADDPS, each rounded, never a fused multiply-add. Operand extents are
// checked by the Go wrappers; nothing here bounds-checks.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27: OSXSAVE (XGETBV usable); bit 28: AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// MULADD32 adds Y4 times the 32 floats at 0(row) to the accumulators
// Y0–Y3; MULADD8 adds Y4 times the 8 floats at 0(row) to Y0.
#define MULADD32(row) \
	VMULPS 0(row), Y4, Y5; \
	VMULPS 32(row), Y4, Y6; \
	VMULPS 64(row), Y4, Y7; \
	VMULPS 96(row), Y4, Y9; \
	VADDPS Y5, Y0, Y0; \
	VADDPS Y6, Y1, Y1; \
	VADDPS Y7, Y2, Y2; \
	VADDPS Y9, Y3, Y3

#define MULADD8(row) \
	VMULPS 0(row), Y4, Y5; \
	VADDPS Y5, Y0, Y0

// STEP32 and STEP8 run one step of a group with no zero: a at off(AX), its
// b row at DX, which they advance to the next row.
#define STEP32(off) \
	VBROADCASTSS off(AX), Y4; \
	MULADD32(DX); \
	ADDQ         R9, DX

#define STEP8(off) \
	VBROADCASTSS off(AX), Y4; \
	MULADD8(DX); \
	ADDQ         R9, DX

// func gemmAxpyAVX(c, a, b *float32, kc, as, ldb, w, rows, ldc, ars int)
//
// For each of rows rows r (c advancing by ldc, a by ars elements):
// c[0:w] += Σ_kk a[kk·as] · b[kk·ldb : kk·ldb+w] for kk ascending, skipping
// every kk whose a element compares equal to zero (±0 skip, NaN does not —
// Go's av == 0). w is 32 or 8; the w lanes of a row stay in registers
// across all kc steps. kc, rows ≥ 1.
//
// A contiguous a (as = 1) is tested eight elements at a time: VCMPPS
// (not-equal, unordered true) and VMOVMSKPS give a mask of the steps to
// run. A full mask runs the eight steps straight; any other is visited
// lowest bit first, so zeros cost no branch each and a ReLU-sparse a skips
// its zero steps without mispredicting on them. A
// strided a, and the last kc mod 8 steps, test each element with UCOMISS
// (equal and ordered: skip).
TEXT ·gemmAxpyAVX(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ as+32(FP), R8
	MOVQ ldb+40(FP), R9
	MOVQ rows+56(FP), R11
	MOVQ ldc+64(FP), R12
	MOVQ ars+72(FP), R13
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R12
	SHLQ $2, R13
	VXORPS X8, X8, X8
	MOVQ w+48(FP), CX
	CMPQ CX, $32
	JNE  axpy8row

axpy32row:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, AX
	MOVQ    b+16(FP), BX
	MOVQ    kc+24(FP), R10
	CMPQ    R8, $4
	JNE     axpy32one

axpy32group:
	CMPQ      R10, $8
	JLT       axpy32tail
	VMOVUPS   (AX), Y10
	VCMPPS    $4, Y8, Y10, Y11
	VMOVMSKPS Y11, R8
	CMPL      R8, $0xff
	JEQ       axpy32full
	TESTL     R8, R8
	JZ        axpy32skip

axpy32bit:
	BSFL         R8, CX
	MOVQ         CX, DX
	IMULQ        R9, DX
	ADDQ         BX, DX
	VBROADCASTSS (AX)(CX*4), Y4
	MULADD32(DX)
	LEAL         -1(R8), CX
	ANDL         CX, R8
	JNZ          axpy32bit

	JMP          axpy32skip

axpy32full:
	MOVQ BX, DX
	STEP32(0)
	STEP32(4)
	STEP32(8)
	STEP32(12)
	STEP32(16)
	STEP32(20)
	STEP32(24)
	STEP32(28)

axpy32skip:
	MOVL $4, R8
	ADDQ $32, AX
	LEAQ (BX)(R9*8), BX
	SUBQ $8, R10
	JMP  axpy32group

axpy32tail:
	TESTQ R10, R10
	JZ    axpy32done

axpy32one:
	VMOVSS   (AX), X4
	VUCOMISS X8, X4
	JNE      axpy32mul
	JPC      axpy32next

axpy32mul:
	VBROADCASTSS (AX), Y4
	MULADD32(BX)

axpy32next:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R10
	JNZ  axpy32one

axpy32done:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    R12, DI
	ADDQ    R13, SI
	DECQ    R11
	JNZ     axpy32row
	VZEROUPPER
	RET

axpy8row:
	VMOVUPS (DI), Y0
	MOVQ    SI, AX
	MOVQ    b+16(FP), BX
	MOVQ    kc+24(FP), R10
	CMPQ    R8, $4
	JNE     axpy8one

axpy8group:
	CMPQ      R10, $8
	JLT       axpy8tail
	VMOVUPS   (AX), Y10
	VCMPPS    $4, Y8, Y10, Y11
	VMOVMSKPS Y11, R8
	CMPL      R8, $0xff
	JEQ       axpy8full
	TESTL     R8, R8
	JZ        axpy8skip

axpy8bit:
	BSFL         R8, CX
	MOVQ         CX, DX
	IMULQ        R9, DX
	ADDQ         BX, DX
	VBROADCASTSS (AX)(CX*4), Y4
	MULADD8(DX)
	LEAL         -1(R8), CX
	ANDL         CX, R8
	JNZ          axpy8bit

	JMP          axpy8skip

axpy8full:
	MOVQ BX, DX
	STEP8(0)
	STEP8(4)
	STEP8(8)
	STEP8(12)
	STEP8(16)
	STEP8(20)
	STEP8(24)
	STEP8(28)

axpy8skip:
	MOVL $4, R8
	ADDQ $32, AX
	LEAQ (BX)(R9*8), BX
	SUBQ $8, R10
	JMP  axpy8group

axpy8tail:
	TESTQ R10, R10
	JZ    axpy8done

axpy8one:
	VMOVSS   (AX), X4
	VUCOMISS X8, X4
	JNE      axpy8mul
	JPC      axpy8next

axpy8mul:
	VBROADCASTSS (AX), Y4
	MULADD8(BX)

axpy8next:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R10
	JNZ  axpy8one

axpy8done:
	VMOVUPS Y0, (DI)
	ADDQ    R12, DI
	ADDQ    R13, SI
	DECQ    R11
	JNZ     axpy8row
	VZEROUPPER
	RET

// func gemmDotAVX(c, s, a, b *float32, kc, w, rows, ldc, lda int)
//
// For each of rows rows r (c advancing by ldc, s by w, a by lda elements),
// lane j accumulates Σ_kk a[kk] · b[kk·w + j] for kk ascending, no product
// skipped: b holds w columns of dot streams packed k-major. The lanes
// start from s[0:w], or from +0 when s is nil; at the end they are added
// to c[0:w] when c is non-nil (the last k panel) and stored to s
// otherwise. w is 32 (one row at a time, four YMM accumulators) or 8 (four
// rows at a time while four remain, one accumulator each). kc, rows ≥ 1.
TEXT ·gemmDotAVX(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ s+8(FP), BX
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ kc+32(FP), CX
	MOVQ w+40(FP), R10
	MOVQ rows+48(FP), R11
	MOVQ ldc+56(FP), R12
	MOVQ lda+64(FP), R13
	SHLQ $2, R12
	SHLQ $2, R13
	CMPQ R10, $32
	JNE  dot8

dot32row:
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	TESTQ   BX, BX
	JZ      dot32k
	VMOVUPS 0(BX), Y0
	VMOVUPS 32(BX), Y1
	VMOVUPS 64(BX), Y2
	VMOVUPS 96(BX), Y3

dot32k:
	MOVQ SI, R8
	MOVQ DX, R9
	MOVQ CX, AX

dot32loop:
	VBROADCASTSS (R8), Y4
	VMULPS       0(R9), Y4, Y5
	VMULPS       32(R9), Y4, Y6
	VMULPS       64(R9), Y4, Y7
	VMULPS       96(R9), Y4, Y9
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y9, Y3, Y3
	ADDQ         $4, R8
	ADDQ         $128, R9
	DECQ         AX
	JNZ          dot32loop

	TESTQ   DI, DI
	JZ      dot32keep
	VADDPS  0(DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    R12, DI
	JMP     dot32next

dot32keep:
	VMOVUPS Y0, 0(BX)
	VMOVUPS Y1, 32(BX)
	VMOVUPS Y2, 64(BX)
	VMOVUPS Y3, 96(BX)

dot32next:
	TESTQ BX, BX
	JZ    dot32adv
	ADDQ  $128, BX

dot32adv:
	ADDQ R13, SI
	DECQ R11
	JNZ  dot32row
	VZEROUPPER
	RET

dot8:
	CMPQ R11, $4
	JLT  dot8row

	// Four rows: a row r at R8 + r·lda (rows 1 and 3 through R10), one
	// accumulator each, sharing every load of b.
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	TESTQ   BX, BX
	JZ      dot8x4k
	VMOVUPS 0(BX), Y0
	VMOVUPS 32(BX), Y1
	VMOVUPS 64(BX), Y2
	VMOVUPS 96(BX), Y3

dot8x4k:
	MOVQ SI, R8
	LEAQ (SI)(R13*1), R10
	MOVQ DX, R9
	MOVQ CX, AX

dot8x4loop:
	VMOVUPS      (R9), Y4
	VBROADCASTSS (R8), Y5
	VBROADCASTSS (R10), Y6
	VBROADCASTSS (R8)(R13*2), Y7
	VBROADCASTSS (R10)(R13*2), Y8
	VMULPS       Y4, Y5, Y5
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y7, Y7
	VMULPS       Y4, Y8, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, R8
	ADDQ         $4, R10
	ADDQ         $32, R9
	DECQ         AX
	JNZ          dot8x4loop

	TESTQ   DI, DI
	JZ      dot8x4keep
	LEAQ    (DI)(R12*2), R8
	VADDPS  (DI), Y0, Y0
	VADDPS  (DI)(R12*1), Y1, Y1
	VADDPS  (R8), Y2, Y2
	VADDPS  (R8)(R12*1), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R12*1)
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, (R8)(R12*1)
	LEAQ    (R8)(R12*2), DI
	JMP     dot8x4next

dot8x4keep:
	VMOVUPS Y0, 0(BX)
	VMOVUPS Y1, 32(BX)
	VMOVUPS Y2, 64(BX)
	VMOVUPS Y3, 96(BX)

dot8x4next:
	TESTQ BX, BX
	JZ    dot8x4adv
	ADDQ  $128, BX

dot8x4adv:
	LEAQ (SI)(R13*4), SI
	SUBQ $4, R11
	JNZ  dot8
	VZEROUPPER
	RET

dot8row:
	VXORPS  Y0, Y0, Y0
	TESTQ   BX, BX
	JZ      dot8k
	VMOVUPS (BX), Y0

dot8k:
	MOVQ SI, R8
	MOVQ DX, R9
	MOVQ CX, AX

dot8loop:
	VBROADCASTSS (R8), Y4
	VMULPS       (R9), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, R8
	ADDQ         $32, R9
	DECQ         AX
	JNZ          dot8loop

	TESTQ   DI, DI
	JZ      dot8keep
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    R12, DI
	JMP     dot8next

dot8keep:
	VMOVUPS Y0, (BX)

dot8next:
	TESTQ BX, BX
	JZ    dot8adv
	ADDQ  $32, BX

dot8adv:
	ADDQ R13, SI
	DECQ R11
	JNZ  dot8row
	VZEROUPPER
	RET
