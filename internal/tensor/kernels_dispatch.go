// Runtime kernel dispatch for the blocked matmul's inner saxpy sweeps
// and the float64-accumulating Daxpy4. At startup the function pointers
// below are aimed at the widest kernel set the CPU supports: AVX2 on
// amd64 if the CPU and OS support it, else the portable Go kernels,
// which are also the only kernels on every other architecture. Every
// kernel is bit-identical to its portable Go reference, so the choice
// changes speed, never results. SetMatMulKernel switches all three
// together for tests that sweep them.
package tensor

import "fmt"

// Kernel set names, as reported by MatMulKernel and accepted by
// SetMatMulKernel.
const (
	KernelGeneric = "generic" // portable Go, the bit-identity reference
	KernelAVX2    = "avx2"    // 8-wide AVX2, bit-identical
)

// The dispatched inner kernels. matMulBlocked snapshots the saxpy pair
// at entry, so a concurrent SetMatMulKernel cannot tear one multiply;
// still, set the kernel before spawning matmul goroutines.
var (
	saxpy4Impl = saxpy4Go
	saxpy1Impl = saxpy1Go
	daxpy4Impl = daxpy4Go

	matmulKernel = KernelGeneric
)

// MatMulKernel reports which kernel set the blocked matmul and Daxpy4
// dispatch to: "generic" or "avx2".
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

// SetMatMulKernel forces a specific kernel set ("generic" or "avx2")
// for the matmul and Daxpy4 alike. It fails if the CPU or build does
// not support the set. Not safe to call concurrently with running
// kernels.
func SetMatMulKernel(name string) error {
	for _, k := range kernels() {
		if k.name == name {
			k.use()
			return nil
		}
	}
	return fmt.Errorf("tensor: matmul kernel %q not supported on this CPU (have %v)", name, MatMulKernels())
}

// kernelSet is one selectable set of inner kernels.
type kernelSet struct {
	name   string
	saxpy4 func(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
	saxpy1 func(orow []float32, a float32, brow []float32)
	daxpy4 func(acc []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float32)
}

// use aims the dispatched kernels at k.
func (k kernelSet) use() {
	saxpy4Impl, saxpy1Impl, daxpy4Impl, matmulKernel = k.saxpy4, k.saxpy1, k.daxpy4, k.name
}

// kernels returns the generic set followed by the vector sets this CPU
// supports, widest last.
func kernels() []kernelSet {
	return append([]kernelSet{{name: KernelGeneric, saxpy4: saxpy4Go, saxpy1: saxpy1Go, daxpy4: daxpy4Go}}, archKernels()...)
}

func init() {
	// Automatic choice: the widest set the CPU offers.
	ks := kernels()
	ks[len(ks)-1].use()
}
