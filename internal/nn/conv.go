package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a standard 2-D convolution over [H, W, C] inputs with
// symmetric zero padding. Weights are stored pre-lowered as a
// [kh*kw*inC, outC] matrix so the forward pass is one im2col + matmul.
type Conv2D struct {
	name              string
	KH, KW, InC, OutC int
	Stride            int
	PadH, PadW        int
	W                 *tensor.Tensor // [kh*kw*inC, outC]
	B                 *tensor.Tensor // [outC]
	dW, dB            *tensor.Tensor
}

// NewConv2D creates a convolution layer with symmetric zero padding,
// He-normal initialized weights and zero bias.
func NewConv2D(name string, kh, kw, inC, outC, stride, pad int, rng *rand.Rand) (*Conv2D, error) {
	return NewConv2DRect(name, kh, kw, inC, outC, stride, pad, pad, rng)
}

// NewConv2DRect creates a convolution layer with independent vertical and
// horizontal zero padding, as the factorized 1x7/7x1 Inception kernels
// require.
func NewConv2DRect(name string, kh, kw, inC, outC, stride, padH, padW int, rng *rand.Rand) (*Conv2D, error) {
	if kh <= 0 || kw <= 0 || inC <= 0 || outC <= 0 || stride <= 0 || padH < 0 || padW < 0 {
		return nil, fmt.Errorf("nn: conv %q: bad geometry k=%dx%d c=%d->%d s=%d p=%d,%d",
			name, kh, kw, inC, outC, stride, padH, padW)
	}
	c := &Conv2D{
		name: name, KH: kh, KW: kw, InC: inC, OutC: outC,
		Stride: stride, PadH: padH, PadW: padW,
		W: tensor.MustNew(kh*kw*inC, outC),
		B: tensor.MustNew(outC),
	}
	fanIn := float64(kh * kw * inC)
	c.W.RandNormal(rng, 0, math.Sqrt(2/fanIn))
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Kind implements Layer.
func (c *Conv2D) Kind() string { return "CONV" }

func (c *Conv2D) checkShape(s []int) error {
	if len(s) != 3 || s[2] != c.InC {
		return fmt.Errorf("%w: conv %q wants [H W %d], got %v", ErrShape, c.name, c.InC, s)
	}
	if tensor.ConvOutDim(s[0], c.KH, c.Stride, c.PadH) <= 0 ||
		tensor.ConvOutDim(s[1], c.KW, c.Stride, c.PadW) <= 0 {
		return fmt.Errorf("%w: conv %q output collapses on input %v", ErrShape, c.name, s)
	}
	return nil
}

// checkInput is checkShape reading dimensions straight off the tensor,
// keeping the forward hot path free of shape-slice allocations.
func (c *Conv2D) checkInput(x *tensor.Tensor) error {
	if x.Rank() != 3 || x.Dim(2) != c.InC {
		return fmt.Errorf("%w: conv %q wants [H W %d], got %v", ErrShape, c.name, c.InC, x.Shape())
	}
	if tensor.ConvOutDim(x.Dim(0), c.KH, c.Stride, c.PadH) <= 0 ||
		tensor.ConvOutDim(x.Dim(1), c.KW, c.Stride, c.PadW) <= 0 {
		return fmt.Errorf("%w: conv %q output collapses on input %v", ErrShape, c.name, x.Shape())
	}
	return nil
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	if err := c.checkShape(s); err != nil {
		return nil, err
	}
	return []int{
		tensor.ConvOutDim(s[0], c.KH, c.Stride, c.PadH),
		tensor.ConvOutDim(s[1], c.KW, c.Stride, c.PadW),
		c.OutC,
	}, nil
}

// convT keys the channel-major transients. No layer reads another
// layer's transients, so every Conv2D of a graph shares one set.
const convT = "conv^T"

// Forward implements Layer: an im2col lowering of x into s, one blocked
// matmul against W, then the per-channel bias. The lowering takes the
// orientation whose matmul inner sweep is longer (DESIGN.md "Compute
// kernels"): with more output pixels P than channels it computes
// y^T = W^T · patches^T, a [OutC, P] product, otherwise the pixel-major
// y = cols · W, a [P, OutC] product.
//
// Both add the same float32 products for each output element in the
// same ascending tap order; they differ only in which operand's zeros
// the matmul skips. With finite operands a skipped term is a ±0 product,
// which cannot change an accumulator that starts at +0, so the two are
// bit-identical. A non-finite operand (FaultSweep's bit flips write
// Inf/NaN weights) would turn a skipped 0·Inf into a NaN, so it keeps
// the pixel-major lowering, whose zero skips define the reference.
func (c *Conv2D) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	if err := c.checkInput(x); err != nil {
		return nil, err
	}
	oh := tensor.ConvOutDim(x.Dim(0), c.KH, c.Stride, c.PadH)
	ow := tensor.ConvOutDim(x.Dim(1), c.KW, c.Stride, c.PadW)
	np, k := oh*ow, c.KH*c.KW*c.InC
	y := s.Tensor(c.name, "/y", np, c.OutC)
	if np > c.OutC && c.weightsFinite(s) && x.AllFinite() {
		err = c.forwardChannelMajor(y, x, s, np, k)
	} else {
		err = c.forwardPixelMajor(y, x, s, np, k)
	}
	if err != nil {
		return nil, err
	}
	return s.View(c.name, "/out", y.Data, oh, ow, c.OutC)
}

// forwardPixelMajor computes y = cols·W + B with cols the [P, k] patch
// matrix.
func (c *Conv2D) forwardPixelMajor(y, x *tensor.Tensor, s *Scratch, np, k int) error {
	cols := s.Floats(c.name, "/cols", np*k)
	if _, _, err := tensor.Im2ColInto(cols, x, c.KH, c.KW, c.Stride, c.PadH, c.PadW); err != nil {
		return err
	}
	colsT, err := s.View(c.name, "/colsT", cols, np, k)
	if err != nil {
		return err
	}
	if err := tensor.MatMulInto(y, colsT, c.W); err != nil {
		return err
	}
	for r := 0; r < np; r++ {
		row := y.Data[r*c.OutC : (r+1)*c.OutC]
		for j := range row {
			row[j] += c.B.Data[j]
		}
	}
	return nil
}

// convPrep is what the channel-major lowering needs of a Conv2D's
// weights: whether they are all finite, and W^T. A memo pass prepares it
// once for all its inputs (Graph.BeginMemo); any other forward derives
// both on every call, because callers rewrite weights between forwards.
type convPrep struct {
	finite bool
	wt     []float32 // W^T, [OutC, k]
}

// prepare fills p from c's current weights, reusing p.wt.
func (c *Conv2D) prepare(p *convPrep) {
	k := c.KH * c.KW * c.InC
	p.finite = c.W.AllFinite()
	p.wt = resize(p.wt, c.OutC*k)
	c.transposeW(p.wt, k)
}

// transposeW writes W^T, [OutC, k], into wt.
func (c *Conv2D) transposeW(wt []float32, k int) {
	for p := 0; p < k; p++ {
		for o, v := range c.W.Data[p*c.OutC : (p+1)*c.OutC] {
			wt[o*k+p] = v
		}
	}
}

// weightsFinite reports whether W holds no Inf or NaN, reading the memo
// pass's preparation when s runs one.
func (c *Conv2D) weightsFinite(s *Scratch) bool {
	if pre := s.conv[c]; pre != nil {
		return pre.finite
	}
	return c.W.AllFinite()
}

// forwardChannelMajor computes y^T = W^T·patches^T into the shared
// transients, then writes y[r][o] = y^T[o][r] + B[o]. W^T comes from the
// memo pass's preparation when s runs one, and is rebuilt into the
// transients otherwise.
func (c *Conv2D) forwardChannelMajor(y, x *tensor.Tensor, s *Scratch, np, k int) error {
	patches := s.Floats(convT, "/patches", k*np)
	// Im2ColTInto's padded input planes are dead before the matmul
	// writes y^T, so the two share one buffer.
	planeLen := (x.Dim(0) + 2*c.PadH) * (x.Dim(1) + 2*c.PadW) * c.InC
	tmp := s.Floats(convT, "/y", max(c.OutC*np, planeLen))
	if _, _, err := tensor.Im2ColTInto(patches, tmp, x, c.KH, c.KW, c.Stride, c.PadH, c.PadW); err != nil {
		return err
	}
	var wt []float32
	if pre := s.conv[c]; pre != nil {
		wt = pre.wt
	} else {
		wt = s.Floats(convT, "/w", c.OutC*k)
		c.transposeW(wt, k)
	}
	yt := tmp[:c.OutC*np]
	pm, err := s.View(c.name, "/patchesT", patches, k, np)
	if err != nil {
		return err
	}
	wm, err := s.View(c.name, "/wT", wt, c.OutC, k)
	if err != nil {
		return err
	}
	ym, err := s.View(c.name, "/yT", yt, c.OutC, np)
	if err != nil {
		return err
	}
	if err := tensor.MatMulInto(ym, wm, pm); err != nil {
		return err
	}
	// Transpose back in blocks of 16 pixels (one cache line of each y^T
	// row), so the y rows being written stay in L1 across all channels.
	const block = 16
	for r0 := 0; r0 < np; r0 += block {
		r1 := min(r0+block, np)
		for o, b := range c.B.Data {
			for r, v := range yt[o*np+r0 : o*np+r1] {
				y.Data[(r0+r)*c.OutC+o] = v + b
			}
		}
	}
	return nil
}

// Params implements Layer.
func (c *Conv2D) Params() []Param {
	return []Param{{Name: "weights", T: c.W}, {Name: "bias", T: c.B}}
}

// Cost implements Layer: outH*outW*outC*kh*kw*inC MACs.
func (c *Conv2D) Cost(in [][]int) (uint64, error) {
	out, err := c.OutShape(in)
	if err != nil {
		return 0, err
	}
	return uint64(out[0]) * uint64(out[1]) * uint64(c.OutC) *
		uint64(c.KH) * uint64(c.KW) * uint64(c.InC), nil
}

// Backward implements Backprop: the im2col adjoint, computed pixel by
// pixel without materializing either lowered matrix.
//
// For each output pixel r in ascending order, it adds dy[r] to dB and
// x's receptive-field taps times dy[r][j] to column j of dW, reading the
// taps straight from x. That is the per-element order of dW += cols^T·dy
// over the im2col matrix cols, whose zero taps (padding included) add
// nothing: a zero tap times a finite dv is ±0, which leaves a sum that
// started at +0 unchanged, so only a non-finite dv (whose product with 0
// would be NaN) needs them skipped. Likewise a zero dv is skipped unless
// x holds a non-finite value.
//
// With wantDX it also returns dx, the col2im of dcols = dy·W^T: for each
// pixel it forms the k float64 sums sum_j W[i][j]·dy[r][j] (ascending j,
// each from +0) as independent chains over the rows of W^T, then adds
// float32(sum) into the receptive field's dx elements, as col2im adds
// dcols' rows. Zero dv terms are skipped unless W holds a non-finite
// value, and a pixel with no terms adds +0, which changes no dx element.
func (c *Conv2D) Backward(x, dy *tensor.Tensor, s *Scratch, wantDX bool) (*tensor.Tensor, error) {
	if err := c.checkInput(x); err != nil {
		return nil, err
	}
	h, w := x.Dim(0), x.Dim(1)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.PadH)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.PadW)
	k := c.KH * c.KW * c.InC
	if dy.Size() != oh*ow*c.OutC {
		return nil, fmt.Errorf("%w: conv %q backward dy size %d, want %d", ErrShape, c.name, dy.Size(), oh*ow*c.OutC)
	}
	c.ensureGrads()
	var (
		dx      *tensor.Tensor
		wt      []float32
		acc     []float64
		wFinite bool
		dv4     [4]float64
		rows    [4][]float32
	)
	if wantDX {
		dx = s.Tensor(c.name, "/dx", h, w, c.InC)
		clear(dx.Data)
		wt = s.Floats(c.name, "/wT", c.OutC*k)
		c.transposeW(wt, k)
		wFinite = c.W.AllFinite()
		acc = s.Float64s(c.name, "/acc", k)
	}
	xFinite := x.AllFinite()
	inC, outC := c.InC, c.OutC
	runLen := c.KW * inC
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*c.Stride - c.PadH
		kyLo, kyHi := max(0, -iy0), min(c.KH, h-iy0)
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*c.Stride - c.PadW
			kxLo, kxHi := max(0, -ix0), min(c.KW, w-ix0)
			inside := kyLo < kyHi && kxLo < kxHi
			tapLo, n := kxLo*inC, (kxHi-kxLo)*inC
			drow := dy.Data[(oy*ow+ox)*outC : (oy*ow+ox+1)*outC]
			for j, dv := range drow {
				c.dB.Data[j] += dv
				if !inside || (dv == 0 && xFinite) {
					continue
				}
				dw, skipZeros := c.dW.Data, !finite32(dv)
				for ky := kyLo; ky < kyHi; ky++ {
					taps := x.Data[((iy0+ky)*w+ix0+kxLo)*inC:][:n]
					at := (ky*runLen+tapLo)*outC + j
					if skipZeros {
						for _, cv := range taps {
							if cv != 0 {
								dw[at] += float32(cv * dv)
							}
							at += outC
						}
						continue
					}
					for _, cv := range taps {
						dw[at] += float32(cv * dv)
						at += outC
					}
				}
			}
			if dx == nil || !inside {
				continue
			}
			clear(acc)
			terms, n4 := 0, 0
			for j, dv := range drow {
				if dv == 0 && wFinite {
					continue
				}
				terms++
				dv4[n4], rows[n4] = float64(dv), wt[j*k:(j+1)*k]
				if n4++; n4 == 4 {
					tensor.Daxpy4(acc, &dv4, &rows)
					n4 = 0
				}
			}
			for m := range n4 {
				row := rows[m][:len(acc)]
				for i := range acc {
					acc[i] += float64(dv4[m] * float64(row[i]))
				}
			}
			if terms == 0 {
				continue
			}
			for ky := kyLo; ky < kyHi; ky++ {
				src := acc[ky*runLen+tapLo:][:n]
				dst := dx.Data[((iy0+ky)*w+ix0+kxLo)*inC:][:n]
				for t, v := range src {
					dst[t] += float32(v)
				}
			}
		}
	}
	return dx, nil
}

// finite32 reports whether v is neither infinite nor NaN.
func finite32(v float32) bool { return math.Float32bits(v)&0x7f800000 != 0x7f800000 }

func (c *Conv2D) ensureGrads() {
	if c.dW == nil {
		c.dW = tensor.MustNew(c.KH*c.KW*c.InC, c.OutC)
		c.dB = tensor.MustNew(c.OutC)
	}
}

// Grads implements Backprop.
func (c *Conv2D) Grads() []Param {
	c.ensureGrads()
	return []Param{{Name: "weights", T: c.dW}, {Name: "bias", T: c.dB}}
}

// ZeroGrads implements Backprop.
func (c *Conv2D) ZeroGrads() {
	if c.dW != nil {
		c.dW.Zero()
		c.dB.Zero()
	}
}

// DepthwiseConv2D convolves each input channel with its own kh x kw
// filter (channel multiplier 1), the MobileNet building block.
type DepthwiseConv2D struct {
	name        string
	KH, KW, C   int
	Stride, Pad int
	W           *tensor.Tensor // [kh, kw, C]
	B           *tensor.Tensor // [C]
}

// NewDepthwiseConv2D creates a depthwise convolution layer.
func NewDepthwiseConv2D(name string, kh, kw, ch, stride, pad int, rng *rand.Rand) (*DepthwiseConv2D, error) {
	if kh <= 0 || kw <= 0 || ch <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: dwconv %q: bad geometry", name)
	}
	d := &DepthwiseConv2D{
		name: name, KH: kh, KW: kw, C: ch, Stride: stride, Pad: pad,
		W: tensor.MustNew(kh, kw, ch),
		B: tensor.MustNew(ch),
	}
	d.W.RandNormal(rng, 0, math.Sqrt(2/float64(kh*kw)))
	return d, nil
}

// Name implements Layer.
func (d *DepthwiseConv2D) Name() string { return d.name }

// Kind implements Layer.
func (d *DepthwiseConv2D) Kind() string { return "DWCONV" }

// OutShape implements Layer.
func (d *DepthwiseConv2D) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	if len(s) != 3 || s[2] != d.C {
		return nil, fmt.Errorf("%w: dwconv %q wants [H W %d], got %v", ErrShape, d.name, d.C, s)
	}
	oh := tensor.ConvOutDim(s[0], d.KH, d.Stride, d.Pad)
	ow := tensor.ConvOutDim(s[1], d.KW, d.Stride, d.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%w: dwconv %q output collapses on %v", ErrShape, d.name, s)
	}
	return []int{oh, ow, d.C}, nil
}

// checkInput validates a depthwise input without allocating shape slices.
func (d *DepthwiseConv2D) checkInput(x *tensor.Tensor) (oh, ow int, err error) {
	if x.Rank() != 3 || x.Dim(2) != d.C {
		return 0, 0, fmt.Errorf("%w: dwconv %q wants [H W %d], got %v", ErrShape, d.name, d.C, x.Shape())
	}
	oh = tensor.ConvOutDim(x.Dim(0), d.KH, d.Stride, d.Pad)
	ow = tensor.ConvOutDim(x.Dim(1), d.KW, d.Stride, d.Pad)
	if oh <= 0 || ow <= 0 {
		return 0, 0, fmt.Errorf("%w: dwconv %q output collapses on %v", ErrShape, d.name, x.Shape())
	}
	return oh, ow, nil
}

// Forward implements Layer.
func (d *DepthwiseConv2D) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	oh, ow, err := d.checkInput(x)
	if err != nil {
		return nil, err
	}
	out := s.Tensor(d.name, "/out", oh, ow, d.C)
	clear(out.Data) // the taps below accumulate into out
	h, w := x.Dim(0), x.Dim(1)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			orow := out.Data[(oy*ow+ox)*d.C : (oy*ow+ox)*d.C+d.C]
			for ky := 0; ky < d.KH; ky++ {
				iy := oy*d.Stride + ky - d.Pad
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < d.KW; kx++ {
					ix := ox*d.Stride + kx - d.Pad
					if ix < 0 || ix >= w {
						continue
					}
					src := x.Data[(iy*w+ix)*d.C : (iy*w+ix)*d.C+d.C]
					ker := d.W.Data[(ky*d.KW+kx)*d.C : (ky*d.KW+kx)*d.C+d.C]
					for ch := 0; ch < d.C; ch++ {
						orow[ch] += float32(src[ch] * ker[ch])
					}
				}
			}
			for ch := 0; ch < d.C; ch++ {
				orow[ch] += d.B.Data[ch]
			}
		}
	}
	return out, nil
}

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []Param {
	return []Param{{Name: "weights", T: d.W}, {Name: "bias", T: d.B}}
}

// Cost implements Layer: outH*outW*C*kh*kw MACs.
func (d *DepthwiseConv2D) Cost(in [][]int) (uint64, error) {
	out, err := d.OutShape(in)
	if err != nil {
		return 0, err
	}
	return uint64(out[0]) * uint64(out[1]) * uint64(d.C) * uint64(d.KH) * uint64(d.KW), nil
}
