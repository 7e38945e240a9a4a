package tensor

import "fmt"

// Col2ImRect scatters a column-matrix gradient back to the [H, W, C]
// input layout, the adjoint of Im2ColRect: overlapping receptive-field
// contributions accumulate. cols must have shape [outH*outW, kh*kw*C]
// for the given geometry, with independent vertical and horizontal
// padding.
func Col2ImRect(cols *Tensor, h, w, c, kh, kw, stride, padH, padW int) (*Tensor, error) {
	if cols.Rank() != 2 {
		return nil, fmt.Errorf("%w: col2im wants rank-2 cols, got %v", ErrShape, cols.Shape())
	}
	if stride <= 0 || kh <= 0 || kw <= 0 || padH < 0 || padW < 0 || h <= 0 || w <= 0 || c <= 0 {
		return nil, fmt.Errorf("tensor: bad col2im geometry")
	}
	outH := ConvOutDim(h, kh, stride, padH)
	outW := ConvOutDim(w, kw, stride, padW)
	if cols.Dim(0) != outH*outW || cols.Dim(1) != kh*kw*c {
		return nil, fmt.Errorf("%w: col2im cols %v for geometry %dx%dx%d k%dx%d s%d p%d,%d",
			ErrShape, cols.Shape(), h, w, c, kh, kw, stride, padH, padW)
	}
	x := MustNew(h, w, c)
	row := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			src := cols.Data[row*kh*kw*c : (row+1)*kh*kw*c]
			si := 0
			for ky := 0; ky < kh; ky++ {
				iy := oy*stride + ky - padH
				if iy < 0 || iy >= h {
					si += kw * c
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ox*stride + kx - padW
					if ix < 0 || ix >= w {
						si += c
						continue
					}
					dst := x.Data[(iy*w+ix)*c : (iy*w+ix)*c+c]
					for j := 0; j < c; j++ {
						dst[j] += src[si+j]
					}
					si += c
				}
			}
			row++
		}
	}
	return x, nil
}
