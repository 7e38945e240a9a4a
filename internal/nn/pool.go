package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// poolKind selects the reduction of a Pool2D layer.
type poolKind int8

const (
	poolMax poolKind = iota
	poolAvg
)

// Pool2D is a 2-D max or average pooling layer over [H, W, C] inputs.
type Pool2D struct {
	name   string
	kind   poolKind
	Size   int
	Stride int
	Pad    int
}

// NewMaxPool2D creates a max pooling layer with square window size and the
// given stride (stride = size is the usual non-overlapping pooling).
func NewMaxPool2D(name string, size, stride int) (*Pool2D, error) {
	return newPool(name, poolMax, size, stride, 0)
}

// NewMaxPool2DPadded creates a max pooling layer with symmetric zero
// padding (padding taps are ignored, not treated as zeros, so negative
// activations pool correctly).
func NewMaxPool2DPadded(name string, size, stride, pad int) (*Pool2D, error) {
	return newPool(name, poolMax, size, stride, pad)
}

// NewAvgPool2D creates an average pooling layer.
func NewAvgPool2D(name string, size, stride int) (*Pool2D, error) {
	return newPool(name, poolAvg, size, stride, 0)
}

// NewAvgPool2DPadded creates an average pooling layer with symmetric zero
// padding (Inception towers use padded 3x3/s1 average pooling).
func NewAvgPool2DPadded(name string, size, stride, pad int) (*Pool2D, error) {
	return newPool(name, poolAvg, size, stride, pad)
}

func newPool(name string, kind poolKind, size, stride, pad int) (*Pool2D, error) {
	if size <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: pool %q: bad geometry size=%d stride=%d pad=%d", name, size, stride, pad)
	}
	return &Pool2D{name: name, kind: kind, Size: size, Stride: stride, Pad: pad}, nil
}

// Name implements Layer.
func (p *Pool2D) Name() string { return p.name }

// Kind implements Layer.
func (p *Pool2D) Kind() string { return "POOL" }

// OutShape implements Layer.
func (p *Pool2D) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	if len(s) != 3 {
		return nil, fmt.Errorf("%w: pool %q wants [H W C], got %v", ErrShape, p.name, s)
	}
	oh := tensor.ConvOutDim(s[0], p.Size, p.Stride, p.Pad)
	ow := tensor.ConvOutDim(s[1], p.Size, p.Stride, p.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%w: pool %q output collapses on %v", ErrShape, p.name, s)
	}
	return []int{oh, ow, s[2]}, nil
}

// checkInput validates a pooling input without allocating shape slices.
func (p *Pool2D) checkInput(x *tensor.Tensor) (oh, ow int, err error) {
	if x.Rank() != 3 {
		return 0, 0, fmt.Errorf("%w: pool %q wants [H W C], got %v", ErrShape, p.name, x.Shape())
	}
	oh = tensor.ConvOutDim(x.Dim(0), p.Size, p.Stride, p.Pad)
	ow = tensor.ConvOutDim(x.Dim(1), p.Size, p.Stride, p.Pad)
	if oh <= 0 || ow <= 0 {
		return 0, 0, fmt.Errorf("%w: pool %q output collapses on %v", ErrShape, p.name, x.Shape())
	}
	return oh, ow, nil
}

// Forward implements Layer. Each output pixel's window is clipped to the
// input once, then reduced tap by tap (row-major) over the C contiguous
// channels of each tap. Per channel that visits the same taps in the same
// order as a per-channel loop: max keeps the first strictly greater value
// starting from −Inf (so an all-NaN window yields −Inf), average sums in
// float64 and divides by the in-bounds tap count. A window with no
// in-bounds tap yields 0. When s's Prep records this layer (training),
// max pooling also records the input index of each output's kept value,
// −1 where none beat −Inf, for Backward.
func (p *Pool2D) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	oh, ow, err := p.checkInput(x)
	if err != nil {
		return nil, err
	}
	h, w, c := x.Dim(0), x.Dim(1), x.Dim(2)
	out := s.Tensor(p.name, "/out", oh, ow, c)
	var (
		sum []float64
		arg []int32
	)
	if p.kind == poolAvg {
		sum = s.Float64s(p.name, "/sum", c)
	} else {
		arg = s.recorder(p, x, len(out.Data))
	}
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*p.Stride - p.Pad
		kyLo, kyHi := max(0, -iy0), min(p.Size, h-iy0)
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*p.Stride - p.Pad
			kxLo, kxHi := max(0, -ix0), min(p.Size, w-ix0)
			orow := out.Data[(oy*ow+ox)*c : (oy*ow+ox+1)*c]
			var orec []int32
			if arg != nil {
				orec = arg[(oy*ow+ox)*c : (oy*ow+ox+1)*c]
				for ch := range orec {
					orec[ch] = -1
				}
			}
			if kyLo >= kyHi || kxLo >= kxHi {
				clear(orow)
				continue
			}
			if p.kind == poolMax {
				for ch := range orow {
					orow[ch] = float32(math.Inf(-1))
				}
			} else {
				clear(sum)
			}
			for ky := kyLo; ky < kyHi; ky++ {
				for kx := kxLo; kx < kxHi; kx++ {
					at := ((iy0+ky)*w + ix0 + kx) * c
					px := x.Data[at : at+len(orow)]
					if orec != nil {
						orec := orec[:len(px)]
						// The same selection as below, with the
						// winner's index kept beside its value: a
						// mask from the test picks both without a
						// branch.
						for ch, v := range px {
							var m int32
							if v > orow[ch] {
								m = -1
							}
							bb, vb := math.Float32bits(orow[ch]), math.Float32bits(v)
							orow[ch] = math.Float32frombits(bb ^ (bb^vb)&uint32(m))
							orec[ch] ^= (orec[ch] ^ int32(at+ch)) & m
						}
					} else if p.kind == poolMax {
						// Selecting between the two values' bits compiles
						// to a conditional move; a float assignment under
						// the test is a branch that mispredicts on real
						// activations.
						for ch, v := range px {
							best := orow[ch]
							vb, bb := math.Float32bits(v), math.Float32bits(best)
							if v > best {
								bb = vb
							}
							orow[ch] = math.Float32frombits(bb)
						}
					} else {
						for ch, v := range px {
							sum[ch] += float64(v)
						}
					}
				}
			}
			if p.kind == poolAvg {
				count := float64((kyHi - kyLo) * (kxHi - kxLo))
				for ch, v := range sum {
					orow[ch] = float32(v / count)
				}
			}
		}
	}
	return out, nil
}

// Params implements Layer.
func (p *Pool2D) Params() []Param { return nil }

// Cost implements Layer.
func (p *Pool2D) Cost(in [][]int) (uint64, error) { return 0, nil }

// Backward implements Backprop. For max pooling the gradient routes to the
// (first) argmax tap of each window: read from the record of the forward
// on x when s's Prep holds one (x must still hold what that forward
// read, as a training step's activations do), else found again by
// scanning x. For average pooling it spreads uniformly over the
// in-bounds taps. Each window is clipped to the input as in Forward and
// walked row-major, and every output's gradient is added in ascending
// output order either way.
func (p *Pool2D) Backward(x, dy *tensor.Tensor, s *Scratch, wantDX bool) (*tensor.Tensor, error) {
	oh, ow, err := p.checkInput(x)
	if err != nil {
		return nil, err
	}
	h, w, c := x.Dim(0), x.Dim(1), x.Dim(2)
	if dy.Size() != oh*ow*c {
		return nil, fmt.Errorf("%w: pool %q backward dy size %d, want %d", ErrShape, p.name, dy.Size(), oh*ow*c)
	}
	if !wantDX {
		return nil, nil
	}
	dx := s.Tensor(p.name, "/dx", h, w, c)
	clear(dx.Data)
	if arg := s.recorded(p, x); arg != nil {
		for o, g := range dy.Data {
			if i := arg[o]; i >= 0 && g != 0 {
				dx.Data[i] += g
			}
		}
		return dx, nil
	}
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*p.Stride - p.Pad
		kyLo, kyHi := max(0, -iy0), min(p.Size, h-iy0)
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*p.Stride - p.Pad
			kxLo, kxHi := max(0, -ix0), min(p.Size, w-ix0)
			if kyLo >= kyHi || kxLo >= kxHi {
				continue
			}
			for ch := 0; ch < c; ch++ {
				g := dy.Data[(oy*ow+ox)*c+ch]
				if g == 0 {
					continue
				}
				if p.kind == poolMax {
					bestIdx := -1
					best := float32(math.Inf(-1))
					for ky := kyLo; ky < kyHi; ky++ {
						for kx := kxLo; kx < kxHi; kx++ {
							idx := ((iy0+ky)*w+ix0+kx)*c + ch
							if x.Data[idx] > best {
								best = x.Data[idx]
								bestIdx = idx
							}
						}
					}
					if bestIdx >= 0 {
						dx.Data[bestIdx] += g
					}
					continue
				}
				share := g / float32((kyHi-kyLo)*(kxHi-kxLo))
				for ky := kyLo; ky < kyHi; ky++ {
					for kx := kxLo; kx < kxHi; kx++ {
						dx.Data[((iy0+ky)*w+ix0+kx)*c+ch] += share
					}
				}
			}
		}
	}
	return dx, nil
}

// Grads implements Backprop.
func (p *Pool2D) Grads() []Param { return nil }

// ZeroGrads implements Backprop.
func (p *Pool2D) ZeroGrads() {}

// GlobalAvgPool reduces [H, W, C] to a [C] vector of channel means.
type GlobalAvgPool struct {
	name string
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Kind implements Layer.
func (g *GlobalAvgPool) Kind() string { return "POOL" }

// OutShape implements Layer.
func (g *GlobalAvgPool) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	if len(s) != 3 {
		return nil, fmt.Errorf("%w: gap %q wants [H W C], got %v", ErrShape, g.name, s)
	}
	return []int{s[2]}, nil
}

// Forward implements Layer: channel sums accumulated in float64.
func (g *GlobalAvgPool) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	if x.Rank() != 3 {
		return nil, fmt.Errorf("%w: gap %q wants [H W C], got %v", ErrShape, g.name, x.Shape())
	}
	h, w, c := x.Dim(0), x.Dim(1), x.Dim(2)
	out := s.Tensor(g.name, "/out", c)
	acc := s.Float64s(g.name, "/acc", c)
	clear(acc)
	for i := 0; i < h*w; i++ {
		px := x.Data[i*c : (i+1)*c]
		for ch := 0; ch < c; ch++ {
			acc[ch] += float64(px[ch])
		}
	}
	for ch := 0; ch < c; ch++ {
		out.Data[ch] = float32(acc[ch] / float64(h*w))
	}
	return out, nil
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []Param { return nil }

// Cost implements Layer.
func (g *GlobalAvgPool) Cost(in [][]int) (uint64, error) { return 0, nil }
