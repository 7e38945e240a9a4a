// Runtime kernel dispatch for the blocked matmul's inner saxpy sweeps.
// At startup (or via SetMatMulKernel) the function pointers below are
// aimed at the widest kernel the CPU supports. Every kernel is
// bit-identical to the portable Go reference. The former `-tags vecmm`
// build split is gone: one binary carries every kernel and picks at run
// time.
//
// Selection on amd64: AVX2 if the CPU and OS support it, else the
// portable Go kernel. On arm64 the NEON kernels are always selected (Advanced SIMD is part of the ARMv8-A baseline and the
// kernels use unfused multiply+add, so they are bit-identical). On other
// architectures the portable Go kernel runs.
//
// The VECMM environment variable overrides the automatic choice:
//
//	VECMM=off   (or generic)  portable Go kernel
//	VECMM=avx2                AVX2 saxpy kernels (amd64)
//	VECMM=neon                NEON saxpy kernels (arm64)
//
// An unsupported or unknown value is ignored and the automatic choice
// stands (a forced binary must not crash on older hardware).
package tensor

import (
	"fmt"
	"os"
)

// Saxpy kernel names, as reported by MatMulKernel and accepted by
// SetMatMulKernel.
const (
	KernelGeneric = "generic" // portable Go, the bit-identity reference
	KernelAVX2    = "avx2"    // 8-wide AVX2, bit-identical
	KernelNEON    = "neon"    // 4-wide NEON (arm64 baseline), bit-identical
)

// The dispatched inner kernels. matMulBlocked snapshots these at entry,
// so a concurrent SetMatMulKernel cannot tear one multiply; still, set
// the kernel before spawning matmul goroutines.
var (
	saxpy4Impl = saxpy4Go
	saxpy1Impl = saxpy1Go

	matmulKernel = KernelGeneric
)

// MatMulKernel reports which saxpy kernel the blocked matmul dispatches
// to: "generic", "avx2", or "neon".
func MatMulKernel() string { return matmulKernel }

// VecMatMul reports whether a vectorized (SIMD) kernel is live. All
// kernels produce bit-identical results, so this flag is informational,
// not a correctness switch.
func VecMatMul() bool { return matmulKernel != KernelGeneric }

// MatMulKernels lists the kernels this CPU can run, widest last. The
// generic kernel is always available.
func MatMulKernels() []string {
	names := []string{KernelGeneric}
	for _, k := range archKernels() {
		names = append(names, k.name)
	}
	return names
}

// SetMatMulKernel forces a specific kernel ("generic", "avx2", "neon";
// "off" is an accepted alias). It fails if the CPU or build does
// not support the kernel. Not safe to call concurrently with running
// matmuls.
func SetMatMulKernel(name string) error {
	if name == "off" || name == KernelGeneric {
		saxpy4Impl, saxpy1Impl = saxpy4Go, saxpy1Go
		matmulKernel = KernelGeneric
		return nil
	}
	for _, k := range archKernels() {
		if k.name == name {
			saxpy4Impl, saxpy1Impl = k.saxpy4, k.saxpy1
			matmulKernel = k.name
			return nil
		}
	}
	return fmt.Errorf("tensor: matmul kernel %q not supported on this CPU (have %v)", name, MatMulKernels())
}

// saxpyKernel is one selectable inner-kernel pair.
type saxpyKernel struct {
	name   string
	saxpy4 func(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
	saxpy1 func(orow []float32, a float32, brow []float32)
}

func init() {
	// Automatic choice: the widest kernel the arch offers.
	if ks := archKernels(); len(ks) > 0 {
		k := ks[len(ks)-1]
		saxpy4Impl, saxpy1Impl, matmulKernel = k.saxpy4, k.saxpy1, k.name
	}
	if env := os.Getenv("VECMM"); env != "" && env != "auto" && env != "on" {
		// Explicit override; silently keep the automatic choice if this
		// CPU cannot honor it.
		_ = SetMatMulKernel(env)
	}
}
