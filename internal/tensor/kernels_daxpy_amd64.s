// AVX2 body of Daxpy4 (kernels_daxpy.go), selected with the AVX2 saxpy
// pair. Widening float32 to float64 is exact (VCVTPS2PD, CVTSS2SD), and
// VMULPD/VADDPD are lane-independent IEEE binary64 operations applied in
// the Go loop's order: four separate multiply and add pairs per element,
// no FMA, no reassociation. So every lane reproduces daxpy4Go's
// rounding sequence exactly. The body ends with VZEROUPPER before its
// scalar SSE2 tail.

#include "textflag.h"

// func daxpy4AVX2(acc []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float32)
//
// acc[j] += x0*r0[j]; += x1*r1[j]; += x2*r2[j]; += x3*r3[j]
// for j in [0, len(acc)), eight lanes at a time.
TEXT ·daxpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ r0_base+56(FP), SI
	MOVQ r1_base+80(FP), R8
	MOVQ r2_base+104(FP), R9
	MOVQ r3_base+128(FP), R10

	VBROADCASTSD x0+24(FP), Y0
	VBROADCASTSD x1+32(FP), Y1
	VBROADCASTSD x2+40(FP), Y2
	VBROADCASTSD x3+48(FP), Y3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX // DX = len rounded down to a multiple of 8

	// Two independent 4-lane accumulators per step, j and j+4.
avx8:
	CMPQ      AX, DX
	JGE       avx8tail
	VMOVUPD   (DI)(AX*8), Y4    // a = acc[j:j+4]
	VMOVUPD   32(DI)(AX*8), Y6  // b = acc[j+4:j+8]
	VCVTPS2PD (SI)(AX*4), Y5
	VCVTPS2PD 16(SI)(AX*4), Y7
	VMULPD    Y0, Y5, Y5
	VMULPD    Y0, Y7, Y7
	VADDPD    Y5, Y4, Y4        // a += x0*r0[j:j+4]
	VADDPD    Y7, Y6, Y6        // b += x0*r0[j+4:j+8]
	VCVTPS2PD (R8)(AX*4), Y5
	VCVTPS2PD 16(R8)(AX*4), Y7
	VMULPD    Y1, Y5, Y5
	VMULPD    Y1, Y7, Y7
	VADDPD    Y5, Y4, Y4        // a += x1*r1[j:j+4]
	VADDPD    Y7, Y6, Y6
	VCVTPS2PD (R9)(AX*4), Y5
	VCVTPS2PD 16(R9)(AX*4), Y7
	VMULPD    Y2, Y5, Y5
	VMULPD    Y2, Y7, Y7
	VADDPD    Y5, Y4, Y4        // a += x2*r2[j:j+4]
	VADDPD    Y7, Y6, Y6
	VCVTPS2PD (R10)(AX*4), Y5
	VCVTPS2PD 16(R10)(AX*4), Y7
	VMULPD    Y3, Y5, Y5
	VMULPD    Y3, Y7, Y7
	VADDPD    Y5, Y4, Y4        // a += x3*r3[j:j+4]
	VADDPD    Y7, Y6, Y6
	VMOVUPD   Y4, (DI)(AX*8)
	VMOVUPD   Y6, 32(DI)(AX*8)
	ADDQ      $8, AX
	JMP       avx8

avx8tail:
	// The broadcasts survive in X0..X3 (VZEROUPPER clears only the
	// upper halves); the scalar tail repeats the lane sequence.
	VZEROUPPER
	CMPQ     AX, CX
	JGE      avx8done
	MOVSD    (DI)(AX*8), X4
	CVTSS2SD (SI)(AX*4), X5
	MULSD    X0, X5
	ADDSD    X5, X4
	CVTSS2SD (R8)(AX*4), X5
	MULSD    X1, X5
	ADDSD    X5, X4
	CVTSS2SD (R9)(AX*4), X5
	MULSD    X2, X5
	ADDSD    X5, X4
	CVTSS2SD (R10)(AX*4), X5
	MULSD    X3, X5
	ADDSD    X5, X4
	MOVSD    X4, (DI)(AX*8)
	INCQ     AX
	JMP      avx8tail

avx8done:
	RET
