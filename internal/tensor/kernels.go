// Cache-blocked, allocation-free compute kernels. These are the hot path
// of every accuracy sweep: the *Into variants write into caller-owned
// buffers and block the loops for cache reuse. Im2ColInto writes the
// pixel-major conv lowering and Im2ColTInto its transpose for the
// channel-major one; both are pinned to the per-tap refIm2Col in
// kernels_test.go.
//
// Bit-identity is a hard contract, not an aspiration: for every output
// element the contributions along the shared dimension are accumulated in
// exactly the same order (ascending p, one float32 add per term, zero
// terms skipped) as the naive ikj kernel, so tiling and buffer reuse
// produce byte-identical results. The reference is refMatMul in
// kernels_test.go, and the equivalence tests there pin this with
// math.Float32bits comparisons. Every product that feeds an add is
// converted explicitly (float32(a*b), float64(x*y)): the Go spec lets a
// compiler fuse x*y+z into one rounding, and the conversion forbids it.
// The same holds in internal/nn.
package tensor

import "fmt"

// Default tile sizes for the blocked matrix multiply. The a-panel
// (tileI x tileK floats = 32 KiB) fits L1; the b-panel
// (tileK x tileJ floats = 256 KiB) fits L2 and is reused across the
// tileI rows of the a-panel before being evicted. tileJ keeps the
// destination row segment and the b rows streaming within a bounded
// footprint even for the 4096-wide VGG dense layers.
const (
	defaultTileI = 64
	defaultTileK = 128
	defaultTileJ = 512
)

// MatMulInto computes dst = a·b for a (m x k) and b (k x n), writing into
// the caller-supplied dst (m x n). dst is zeroed first, so a reused
// scratch buffer needs no clearing by the caller. dst must not alias a or
// b. The result is bit-identical to the naive ikj loop.
func MatMulInto(dst, a, b *Tensor) error {
	return MatMulIntoTiles(dst, a, b, defaultTileI, defaultTileK, defaultTileJ)
}

// MatMulIntoTiles is MatMulInto with explicit tile sizes (exported so the
// property tests can sweep degenerate tilings); sizes below 1 select the
// defaults. Every tiling produces bit-identical output because tiles only
// regroup the loop nest — the per-element accumulation order along the
// shared dimension is unchanged.
func MatMulIntoTiles(dst, a, b *Tensor, tileI, tileK, tileJ int) error {
	if a.Rank() != 2 || b.Rank() != 2 || a.shape[1] != b.shape[0] {
		return fmt.Errorf("%w: matmul %v x %v", ErrShape, a.shape, b.shape)
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul dst %v, want [%d %d]", ErrShape, dst.shape, m, n)
	}
	if &dst.Data[0] == &a.Data[0] || &dst.Data[0] == &b.Data[0] {
		return fmt.Errorf("tensor: matmul dst aliases an operand")
	}
	clear(dst.Data)
	matMulBlocked(dst.Data, a.Data, b.Data, m, k, n, tileI, tileK, tileJ)
	return nil
}

// Im2ColInto lowers a [H, W, C] input into dst as an
// [outH*outW, kh*kw*C] matrix whose row oy*outW+ox is the receptive field
// of that output pixel, taps (ky, kx, ci) in ascending order, for
// convolution stride and independent vertical (padH) and horizontal
// (padW) zero padding. dst is caller-owned scratch of at least
// outH*outW*kh*kw*C elements. Out-of-bounds taps are written as explicit
// zeros, so a dirty reused buffer produces the same bytes as a fresh
// allocation. Returns the output spatial dimensions.
//
// The in-bounds taps of one kernel row are adjacent in the [H, W, C]
// input, so each (oy, ox, ky) costs one block copy plus the clears of
// its padded ends, not one copy per tap.
func Im2ColInto(dst []float32, x *Tensor, kh, kw, stride, padH, padW int) (int, int, error) {
	outH, outW, err := im2colGeometry(len(dst), x, kh, kw, stride, padH, padW)
	if err != nil {
		return 0, 0, err
	}
	h, w, c := x.shape[0], x.shape[1], x.shape[2]
	runLen := kw * c
	di := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*stride - padW
			kxLo, kxHi := max(0, -ix0), min(kw, w-ix0)
			for ky := 0; ky < kh; ky++ {
				run := dst[di : di+runLen]
				di += runLen
				iy := oy*stride + ky - padH
				if iy < 0 || iy >= h || kxLo >= kxHi {
					clear(run)
					continue
				}
				clear(run[:kxLo*c])
				src := (iy*w + ix0) * c
				copy(run[kxLo*c:kxHi*c], x.Data[src+kxLo*c:src+kxHi*c])
				clear(run[kxHi*c:])
			}
		}
	}
	return outH, outW, nil
}

// Im2ColTInto writes the transpose of the Im2ColInto matrix: dst is
// [kh*kw*c, outH*outW], one row per tap (ky, kx, ci) in ascending order,
// one column per output pixel. Out-of-bounds taps are explicit zeros, as
// in Im2ColInto. A convolution with more output pixels than channels
// multiplies W^T by this matrix so the matmul's inner sweep runs along
// the longer pixel axis.
//
// planes is caller-owned scratch of at least c*(h+2*padH)*(w+2*padW)
// floats. x is first copied into it as c zero-bordered planes, so the
// values one tap reads for one output row sit at a fixed stride in one
// plane: each outW-float segment of dst is one copy (stride 1) or one
// strided gather, with no padding cases. The padding floats are +0, as
// Im2ColInto writes them.
func Im2ColTInto(dst, planes []float32, x *Tensor, kh, kw, stride, padH, padW int) (int, int, error) {
	outH, outW, err := im2colGeometry(len(dst), x, kh, kw, stride, padH, padW)
	if err != nil {
		return 0, 0, err
	}
	h, w, c := x.shape[0], x.shape[1], x.shape[2]
	ph, pw := h+2*padH, w+2*padW
	need := c * ph * pw
	if len(planes) < need {
		return 0, 0, fmt.Errorf("tensor: im2col planes have %d elements, need %d", len(planes), need)
	}
	planes = planes[:need]
	clear(planes)
	for iy := 0; iy < h; iy++ {
		for ix := 0; ix < w; ix++ {
			at := (iy+padH)*pw + ix + padW
			for ci, v := range x.Data[(iy*w+ix)*c : (iy*w+ix+1)*c] {
				planes[ci*ph*pw+at] = v
			}
		}
	}
	np := outH * outW
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			for ci := 0; ci < c; ci++ {
				row := dst[((ky*kw+kx)*c+ci)*np:][:np]
				src := planes[(ci*ph+ky)*pw+kx:]
				for oy := 0; oy < outH; oy++ {
					seg, s := row[oy*outW:][:outW], src[oy*stride*pw:]
					if stride == 1 {
						copy(seg, s)
						continue
					}
					for ox := range seg {
						seg[ox] = s[ox*stride]
					}
				}
			}
		}
	}
	return outH, outW, nil
}

// im2colGeometry validates an im2col lowering of x into a buffer of n
// elements and returns the output spatial dimensions.
func im2colGeometry(n int, x *Tensor, kh, kw, stride, padH, padW int) (int, int, error) {
	if x.Rank() != 3 {
		return 0, 0, fmt.Errorf("%w: im2col wants [H W C], got %v", ErrShape, x.shape)
	}
	if stride <= 0 || kh <= 0 || kw <= 0 || padH < 0 || padW < 0 {
		return 0, 0, fmt.Errorf("tensor: bad im2col geometry kh=%d kw=%d stride=%d padH=%d padW=%d", kh, kw, stride, padH, padW)
	}
	h, w, c := x.shape[0], x.shape[1], x.shape[2]
	outH := ConvOutDim(h, kh, stride, padH)
	outW := ConvOutDim(w, kw, stride, padW)
	if outH <= 0 || outW <= 0 {
		return 0, 0, fmt.Errorf("tensor: im2col output collapses: in %v kernel %dx%d stride %d pad %d,%d", x.shape, kh, kw, stride, padH, padW)
	}
	if need := outH * outW * kh * kw * c; n < need {
		return 0, 0, fmt.Errorf("tensor: im2col dst has %d elements, need %d", n, need)
	}
	return outH, outW, nil
}
