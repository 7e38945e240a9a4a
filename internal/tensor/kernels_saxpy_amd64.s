// AVX2 saxpy kernels for the runtime-dispatched matmul fast path
// (kernels_dispatch_amd64.go selects them when hasAVX2 reports CPU and
// OS support; otherwise the generic Go kernel runs). Each vector lane
// performs the exact scalar sequence of single-precision multiplies and
// adds (VMULPS/VADDPS are lane-independent IEEE binary32 operations, and
// the four unrolled terms stay four sequential mul+add pairs), so the
// results are bit-identical to the generic Go kernel.
//
// Both bodies end with VZEROUPPER before their scalar SSE tails to avoid
// the AVX-SSE transition penalty.

#include "textflag.h"

// func saxpy4AVX2(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
//
// orow[j] += a0*b0[j]; += a1*b1[j]; += a2*b2[j]; += a3*b3[j]
// for j in [0, len(b0)), eight lanes at a time.
TEXT ·saxpy4AVX2(SB), NOSPLIT, $0-136
	MOVQ orow_base+0(FP), DI
	MOVQ b0_base+40(FP), SI
	MOVQ b0_len+48(FP), CX
	MOVQ b1_base+64(FP), R8
	MOVQ b2_base+88(FP), R9
	MOVQ b3_base+112(FP), R10

	VBROADCASTSS a0+24(FP), Y0
	VBROADCASTSS a1+28(FP), Y1
	VBROADCASTSS a2+32(FP), Y2
	VBROADCASTSS a3+36(FP), Y3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX // DX = len rounded down to a multiple of 8

avx4:
	CMPQ AX, DX
	JGE  avx4tail
	VMOVUPS (DI)(AX*4), Y4   // v = orow[j:j+8]
	VMOVUPS (SI)(AX*4), Y5
	VMULPS  Y0, Y5, Y5
	VADDPS  Y5, Y4, Y4       // v += a0*b0[j:j+8]
	VMOVUPS (R8)(AX*4), Y5
	VMULPS  Y1, Y5, Y5
	VADDPS  Y5, Y4, Y4       // v += a1*b1[j:j+8]
	VMOVUPS (R9)(AX*4), Y5
	VMULPS  Y2, Y5, Y5
	VADDPS  Y5, Y4, Y4       // v += a2*b2[j:j+8]
	VMOVUPS (R10)(AX*4), Y5
	VMULPS  Y3, Y5, Y5
	VADDPS  Y5, Y4, Y4       // v += a3*b3[j:j+8]
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     avx4

avx4tail:
	// The broadcasts survive in X0..X3 (VZEROUPPER clears only the
	// upper halves); the scalar tail repeats the lane sequence.
	VZEROUPPER
	CMPQ AX, CX
	JGE  avx4done
	MOVSS (DI)(AX*4), X4
	MOVSS (SI)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS (R8)(AX*4), X5
	MULSS X1, X5
	ADDSS X5, X4
	MOVSS (R9)(AX*4), X5
	MULSS X2, X5
	ADDSS X5, X4
	MOVSS (R10)(AX*4), X5
	MULSS X3, X5
	ADDSS X5, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   avx4tail

avx4done:
	RET

// func saxpy1AVX2(orow []float32, a float32, brow []float32)
TEXT ·saxpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ orow_base+0(FP), DI
	MOVQ brow_base+32(FP), SI
	MOVQ brow_len+40(FP), CX

	VBROADCASTSS a+24(FP), Y0

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

avx1:
	CMPQ AX, DX
	JGE  avx1tail
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS (SI)(AX*4), Y5
	VMULPS  Y0, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     avx1

avx1tail:
	VZEROUPPER
	CMPQ AX, CX
	JGE  avx1done
	MOVSS (DI)(AX*4), X4
	MOVSS (SI)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   avx1tail

avx1done:
	RET
