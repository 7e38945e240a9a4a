// Blocked matmul kernel with runtime-dispatched inner saxpy sweeps.
// One tiling skeleton runs the innermost j-sweeps through the
// saxpy4Impl/saxpy1Impl function pointers, which kernels_dispatch*.go
// point at the widest kernel the CPU supports (portable Go or AVX2).
//
// Bit-identity contract: for one output element dst[i][j] the kernel
// performs, in ascending p order, one single-precision multiply and one
// single-precision add per nonzero a term. The AVX2 saxpy kernels
// keep the four unrolled terms as four sequential mul+add pairs per
// element (VMULPS/VADDPS are lane-independent IEEE binary32
// operations; no FMA contraction, no reassociation), so every
// vector lane reproduces the scalar rounding sequence exactly. The
// zero-skip branches are taken here in Go before entering any assembly,
// matching the reference kernel's skip behaviour (relevant for signed
// zeros and Inf/NaN propagation: 0*Inf would introduce a NaN the
// reference kernel never sees).

package tensor

// matMulBlocked accumulates dst += a·b (a is m x k, b is k x n) with a
// three-level i/k/j tiling. dst must be zero on entry.
// For a fixed output element the k-blocks are visited in ascending order
// and p ascends within each block, so the float32 accumulation sequence
// matches the reference ikj kernel exactly (including the skip of zero
// a-elements, which contribute no term there either).
//
// The inner kernel additionally unrolls four consecutive p terms into one
// j-sweep, which saves three quarters of the dst loads and stores. Any
// zero among the four falls back to the per-p loop with its zero skip.
func matMulBlocked(dst, a, b []float32, m, k, n, tileI, tileK, tileJ int) {
	if tileI < 1 {
		tileI = defaultTileI
	}
	if tileK < 1 {
		tileK = defaultTileK
	}
	if tileJ < 1 {
		tileJ = defaultTileJ
	}
	saxpy4, saxpy1 := saxpy4Impl, saxpy1Impl
	for ii := 0; ii < m; ii += tileI {
		iMax := min(ii+tileI, m)
		for kk := 0; kk < k; kk += tileK {
			kMax := min(kk+tileK, k)
			for jj := 0; jj < n; jj += tileJ {
				jMax := min(jj+tileJ, n)
				for i := ii; i < iMax; i++ {
					abase := i * k
					orow := dst[i*n+jj : i*n+jMax]
					p := kk
					for ; p+3 < kMax; p += 4 {
						a0, a1, a2, a3 := a[abase+p], a[abase+p+1], a[abase+p+2], a[abase+p+3]
						if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
							b0 := b[(p+0)*n+jj : (p+0)*n+jMax]
							b1 := b[(p+1)*n+jj : (p+1)*n+jMax][:len(b0)]
							b2 := b[(p+2)*n+jj : (p+2)*n+jMax][:len(b0)]
							b3 := b[(p+3)*n+jj : (p+3)*n+jMax][:len(b0)]
							saxpy4(orow, a0, a1, a2, a3, b0, b1, b2, b3)
						} else {
							matMulTail(orow, a, b, abase, p, p+4, n, jj, jMax, saxpy1)
						}
					}
					matMulTail(orow, a, b, abase, p, kMax, n, jj, jMax, saxpy1)
				}
			}
		}
	}
}

// matMulTail applies the reference per-p accumulation (with the zero
// skip) for p in [pLo, pHi) against one destination row segment.
func matMulTail(orow, a, b []float32, abase, pLo, pHi, n, jj, jMax int, saxpy1 func([]float32, float32, []float32)) {
	for p := pLo; p < pHi; p++ {
		av := a[abase+p]
		if av == 0 {
			continue
		}
		saxpy1(orow, av, b[p*n+jj:p*n+jMax])
	}
}

// saxpy4Go computes orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
// with four sequential single-precision multiply-add pairs per element —
// the portable reference every vector kernel must match bit-for-bit. The
// float32 conversion of each product keeps it rounded on its own, so no
// compiler may fuse it into the add.
// b0..b3 must have equal length, and orow at least that length.
func saxpy4Go(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b1 = b1[:len(b0)]
	b2 = b2[:len(b0)]
	b3 = b3[:len(b0)]
	for j := range b0 {
		v := orow[j]
		v += float32(a0 * b0[j])
		v += float32(a1 * b1[j])
		v += float32(a2 * b2[j])
		v += float32(a3 * b3[j])
		orow[j] = v
	}
}

// Saxpy4 adds a[k]·rows[k] to orow for k = 0..3 in order: per element,
// four separate float32 multiplies and adds, through the dispatched
// kernel. Every row must hold at least len(orow) values. Every kernel
// set gives the bits of the portable saxpy4Go.
func Saxpy4(orow []float32, a *[4]float32, rows *[4][]float32) {
	n := len(orow)
	saxpy4Impl(orow, a[0], a[1], a[2], a[3], rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n])
}

// Saxpy adds a·x[j] to orow[j] for j < len(x), one float32 multiply and
// add per element, through the dispatched kernel. orow must hold at
// least len(x) values. Every kernel set gives the bits of saxpy1Go.
func Saxpy(orow []float32, a float32, x []float32) {
	saxpy1Impl(orow[:len(x)], a, x)
}

// saxpy1Go computes orow[j] += a*brow[j] for j in [0, len(brow)).
func saxpy1Go(orow []float32, a float32, brow []float32) {
	for j, bv := range brow {
		orow[j] += float32(a * bv)
	}
}
