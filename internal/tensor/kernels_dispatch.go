// Runtime kernel dispatch for the blocked matmul's inner saxpy sweeps.
// At startup the function pointers below are aimed at the widest kernel
// the CPU supports: AVX2 on amd64 if the CPU and OS support it, else the
// portable Go kernel, which is also the only kernel on every other
// architecture. Every kernel is bit-identical to the portable Go
// reference, so the choice changes speed, never results.
// SetMatMulKernel switches kernels for tests that sweep them.
package tensor

import "fmt"

// Saxpy kernel names, as reported by MatMulKernel and accepted by
// SetMatMulKernel.
const (
	KernelGeneric = "generic" // portable Go, the bit-identity reference
	KernelAVX2    = "avx2"    // 8-wide AVX2, bit-identical
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
// to: "generic" or "avx2".
func MatMulKernel() string { return matmulKernel }

// MatMulKernels lists the kernels this CPU can run, widest last. The
// generic kernel is always available.
func MatMulKernels() []string {
	var names []string
	for _, k := range kernels() {
		names = append(names, k.name)
	}
	return names
}

// SetMatMulKernel forces a specific kernel ("generic" or "avx2"). It
// fails if the CPU or build does not support the kernel. Not safe to
// call concurrently with running matmuls.
func SetMatMulKernel(name string) error {
	for _, k := range kernels() {
		if k.name == name {
			saxpy4Impl, saxpy1Impl, matmulKernel = k.saxpy4, k.saxpy1, k.name
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

// kernels returns the generic kernel followed by the vector kernels this
// CPU supports, widest last.
func kernels() []saxpyKernel {
	return append([]saxpyKernel{{name: KernelGeneric, saxpy4: saxpy4Go, saxpy1: saxpy1Go}}, archKernels()...)
}

func init() {
	// Automatic choice: the widest kernel the CPU offers.
	ks := kernels()
	k := ks[len(ks)-1]
	saxpy4Impl, saxpy1Impl, matmulKernel = k.saxpy4, k.saxpy1, k.name
}
