//go:build !amd64

package tensor

// archKernels returns no vector kernels: only the portable Go kernel is
// available off amd64. (The dispatch machinery still works, so porting a
// vector kernel to another architecture only needs an arch file like
// kernels_dispatch_amd64.go.)
func archKernels() []kernelSet { return nil }
