// NEON saxpy kernels for the runtime-dispatched matmul fast path
// (kernels_dispatch_arm64.go picks them at startup).
//
// Advanced SIMD is part of the ARMv8-A baseline, so these run on every
// arm64 machine. Each vector lane performs the exact scalar sequence of
// single-precision multiplies and adds — the four unrolled terms stay
// four sequential mul+add pairs — so results are bit-identical to the
// generic Go kernel, like the AVX2 pair on amd64. The fused
// FMLA form (one rounding per term) is deliberately NOT used: it would
// break the Float32bits identity contract the dispatcher requires for
// automatic selection.
//
// Go's arm64 assembler has no mnemonics for the UNfused vector FMUL and
// FADD (only the fused VFMLA/VFMLS), so those two instructions are
// emitted as WORD directives. Encodings, against fixed registers
// (verified against `go tool objdump`):
//
//	FMUL <Vd>.4S, <Vn>.4S, <Vm>.4S = 0x6E20DC00 | Vm<<16 | Vn<<5 | Vd
//	FADD <Vd>.4S, <Vn>.4S, <Vm>.4S = 0x4E20D400 | Vm<<16 | Vn<<5 | Vd

#include "textflag.h"

#define FMUL_V5_V5_V16 WORD $0x6E30DCA5 // V5.4S = V5.4S * V16.4S
#define FMUL_V5_V5_V17 WORD $0x6E31DCA5 // V5.4S = V5.4S * V17.4S
#define FMUL_V5_V5_V18 WORD $0x6E32DCA5 // V5.4S = V5.4S * V18.4S
#define FMUL_V5_V5_V19 WORD $0x6E33DCA5 // V5.4S = V5.4S * V19.4S
#define FADD_V4_V4_V5  WORD $0x4E25D484 // V4.4S = V4.4S + V5.4S

// func saxpy4NEON(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
//
// orow[j] += a0*b0[j]; += a1*b1[j]; += a2*b2[j]; += a3*b3[j]
// for j in [0, len(b0)).
TEXT ·saxpy4NEON(SB), NOSPLIT, $0-136
	MOVD orow_base+0(FP), R0
	MOVD b0_base+40(FP), R1
	MOVD b0_len+48(FP), R2
	MOVD b1_base+64(FP), R3
	MOVD b2_base+88(FP), R4
	MOVD b3_base+112(FP), R5

	// Broadcast the four a coefficients across V16..V19; the scalar
	// tail reads them back as F16..F19 (lane 0).
	FMOVS a0+24(FP), F16
	VDUP  V16.S[0], V16.S4
	FMOVS a1+28(FP), F17
	VDUP  V17.S[0], V17.S4
	FMOVS a2+32(FP), F18
	VDUP  V18.S[0], V18.S4
	FMOVS a3+36(FP), F19
	VDUP  V19.S[0], V19.S4

	LSR $2, R2, R6 // 4-wide iterations
	AND $3, R2, R7 // scalar tail elements

vec4:
	CBZ    R6, tail
	VLD1   (R0), [V4.S4]       // v = orow[j:j+4]
	VLD1.P 16(R1), [V5.S4]
	FMUL_V5_V5_V16
	FADD_V4_V4_V5              // v += a0*b0[j:j+4]
	VLD1.P 16(R3), [V5.S4]
	FMUL_V5_V5_V17
	FADD_V4_V4_V5              // v += a1*b1[j:j+4]
	VLD1.P 16(R4), [V5.S4]
	FMUL_V5_V5_V18
	FADD_V4_V4_V5              // v += a2*b2[j:j+4]
	VLD1.P 16(R5), [V5.S4]
	FMUL_V5_V5_V19
	FADD_V4_V4_V5              // v += a3*b3[j:j+4]
	VST1.P [V4.S4], 16(R0)
	SUB    $1, R6
	B      vec4

tail:
	CBZ     R7, done
	FMOVS   (R0), F4
	FMOVS.P 4(R1), F5
	FMULS   F16, F5, F5
	FADDS   F5, F4, F4
	FMOVS.P 4(R3), F5
	FMULS   F17, F5, F5
	FADDS   F5, F4, F4
	FMOVS.P 4(R4), F5
	FMULS   F18, F5, F5
	FADDS   F5, F4, F4
	FMOVS.P 4(R5), F5
	FMULS   F19, F5, F5
	FADDS   F5, F4, F4
	FMOVS.P F4, 4(R0)
	SUB     $1, R7
	B       tail

done:
	RET

// func saxpy1NEON(orow []float32, a float32, brow []float32)
//
// orow[j] += a*brow[j] for j in [0, len(brow)).
TEXT ·saxpy1NEON(SB), NOSPLIT, $0-56
	MOVD orow_base+0(FP), R0
	MOVD brow_base+32(FP), R1
	MOVD brow_len+40(FP), R2

	FMOVS a+24(FP), F16
	VDUP  V16.S[0], V16.S4

	LSR $2, R2, R6
	AND $3, R2, R7

vec1:
	CBZ    R6, tail1
	VLD1   (R0), [V4.S4]
	VLD1.P 16(R1), [V5.S4]
	FMUL_V5_V5_V16
	FADD_V4_V4_V5
	VST1.P [V4.S4], 16(R0)
	SUB    $1, R6
	B      vec1

tail1:
	CBZ     R7, done1
	FMOVS   (R0), F4
	FMOVS.P 4(R1), F5
	FMULS   F16, F5, F5
	FADDS   F5, F4, F4
	FMOVS.P F4, 4(R0)
	SUB     $1, R7
	B       tail1

done1:
	RET
