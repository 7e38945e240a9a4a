// The float64-accumulating row sweep under nn.Dense.Forward and the dx
// pass of nn.Conv2D.Backward. It is dispatched with the saxpy pair
// (kernels_dispatch.go): SetMatMulKernel switches all three together.

package tensor

// Daxpy4 adds x[k]·rows[k] to acc for k = 0..3 in order: per element,
// four separate float64 multiplies and adds, each row value widened
// exactly from float32. Every row must hold at least len(acc) values.
// Every kernel set gives the bits of the portable daxpy4Go.
func Daxpy4(acc []float64, x *[4]float64, rows *[4][]float32) {
	n := len(acc)
	daxpy4Impl(acc, x[0], x[1], x[2], x[3], rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n])
}

// daxpy4Go is the portable Daxpy4 and the reference the vector kernels
// match bit for bit. The float64 conversion of each product keeps it
// rounded on its own, so no compiler may fuse it into the add.
func daxpy4Go(acc []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float32) {
	r0, r1, r2, r3 = r0[:len(acc)], r1[:len(acc)], r2[:len(acc)], r3[:len(acc)]
	for j, a := range acc {
		a += float64(x0 * float64(r0[j]))
		a += float64(x1 * float64(r1[j]))
		a += float64(x2 * float64(r2[j]))
		a += float64(x3 * float64(r3[j]))
		acc[j] = a
	}
}
