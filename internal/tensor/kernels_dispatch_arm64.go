// arm64 kernel table. Advanced SIMD (NEON) is part of the ARMv8-A
// baseline — every arm64 machine Go targets has it — so there is no
// feature probe: the NEON pair is always offered. It is bit-identical to
// the portable reference (unfused FMUL+FADD per term, see
// kernels_saxpy_arm64.s).

package tensor

// Implemented in kernels_saxpy_arm64.s.
//
//go:noescape
func saxpy4NEON(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)

//go:noescape
func saxpy1NEON(orow []float32, a float32, brow []float32)

// archKernels returns the vector kernels this CPU supports.
func archKernels() []saxpyKernel {
	return []saxpyKernel{
		{name: KernelNEON, saxpy4: saxpy4NEON, saxpy1: saxpy1NEON},
	}
}
