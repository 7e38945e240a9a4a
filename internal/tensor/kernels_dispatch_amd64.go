// amd64 kernel table and CPU feature detection. Detection is done with
// raw CPUID/XGETBV (cpuid_amd64.s) instead of a dependency: AVX2 is
// usable only when the CPU advertises it AND the OS saves the YMM state
// (OSXSAVE set and XCR0 enabling both SSE and AVX state), the same
// checks golang.org/x/sys/cpu performs.

package tensor

// Implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// Implemented in kernels_saxpy_amd64.s.
//
//go:noescape
func saxpy4AVX2(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)

//go:noescape
func saxpy1AVX2(orow []float32, a float32, brow []float32)

// Implemented in kernels_daxpy_amd64.s.
//
//go:noescape
func daxpy4AVX2(acc []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float32)

// hasAVX2 reports whether this process can run the AVX2 kernels.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	if ecx1&bitOSXSAVE == 0 || ecx1&bitAVX == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM state on context
	// switch. Without them, executing VEX.256 code faults.
	xeax, _ := xgetbv0()
	if xeax&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const bitAVX2 = 1 << 5
	return ebx7&bitAVX2 != 0
}

// archKernels returns the vector kernel sets this CPU supports: the
// AVX2 set, or none, in which case the generic Go kernels run. They give
// the same bits, so a CPU without AVX2 loses only speed.
func archKernels() []kernelSet {
	if !hasAVX2() {
		return nil
	}
	return []kernelSet{{name: KernelAVX2, saxpy4: saxpy4AVX2, saxpy1: saxpy1AVX2, daxpy4: daxpy4AVX2}}
}
