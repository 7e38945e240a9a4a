package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, optionally clipped (ReLU6).
type ReLU struct {
	name string
	Max  float32 // 0 means unclipped; 6 gives ReLU6
}

// NewReLU creates an unclipped rectifier.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// NewReLU6 creates the clipped rectifier used by MobileNet.
func NewReLU6(name string) *ReLU { return &ReLU{name: name, Max: 6} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Kind implements Layer.
func (r *ReLU) Kind() string { return "ACT" }

// OutShape implements Layer.
func (r *ReLU) OutShape(in [][]int) ([]int, error) { return wantOneShape(in) }

// Forward implements Layer.
func (r *ReLU) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	out := s.TensorLike(r.name, "/out", x)
	dst := out.Data[:len(x.Data)]
	if r.Max <= 0 {
		// v < 0 exactly when v's bits lie in [0x80000001, 0xff800000]
		// (negative, non-zero, not NaN), so -0 and NaN pass through as
		// they do with the float test. One unsigned compare of the bits
		// compiles to a conditional move; the float test is a branch
		// that mispredicts on the mixed signs of a conv output.
		for i, v := range x.Data {
			b := math.Float32bits(v)
			if b-0x80000001 <= 0xff800000-0x80000001 {
				b = 0
			}
			dst[i] = math.Float32frombits(b)
		}
		return out, nil
	}
	for i, v := range x.Data {
		if v < 0 {
			v = 0
		} else if v > r.Max {
			v = r.Max
		}
		dst[i] = v
	}
	return out, nil
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// Cost implements Layer.
func (r *ReLU) Cost(in [][]int) (uint64, error) { return 0, nil }

// Backward implements Backprop: passes gradient where the input was in the
// linear region.
func (r *ReLU) Backward(x, dy *tensor.Tensor, s *Scratch, wantDX bool) (*tensor.Tensor, error) {
	if x.Size() != dy.Size() {
		return nil, fmt.Errorf("%w: relu %q backward size mismatch", ErrShape, r.name)
	}
	if !wantDX {
		return nil, nil
	}
	dx := s.TensorLike(r.name, "/dx", dy)
	dst := dx.Data[:len(x.Data)]
	if r.Max <= 0 {
		// The bit test of Forward: v < 0 exactly when v's bits lie in
		// [0x80000001, 0xff800000], and the select compiles to a
		// conditional move.
		for i, v := range x.Data {
			g := math.Float32bits(dy.Data[i])
			if math.Float32bits(v)-0x80000001 <= 0xff800000-0x80000001 {
				g = 0
			}
			dst[i] = math.Float32frombits(g)
		}
		return dx, nil
	}
	for i, v := range x.Data {
		g := dy.Data[i]
		if v < 0 || v > r.Max {
			g = 0
		}
		dst[i] = g
	}
	return dx, nil
}

// Grads implements Backprop.
func (r *ReLU) Grads() []Param { return nil }

// ZeroGrads implements Backprop.
func (r *ReLU) ZeroGrads() {}

// Softmax turns a score vector into a probability distribution.
type Softmax struct {
	name string
}

// NewSoftmax creates a softmax output layer.
func NewSoftmax(name string) *Softmax { return &Softmax{name: name} }

// Name implements Layer.
func (s *Softmax) Name() string { return s.name }

// Kind implements Layer.
func (s *Softmax) Kind() string { return "ACT" }

// OutShape implements Layer.
func (s *Softmax) OutShape(in [][]int) ([]int, error) { return wantOneShape(in) }

// Forward implements Layer. Numerically stabilized by max subtraction.
func (s *Softmax) Forward(xs []*tensor.Tensor, sc *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	out := sc.TensorLike(s.name, "/out", x)
	maxv := x.Data[0]
	for _, v := range x.Data {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x.Data {
		e := math.Exp(float64(v - maxv))
		out.Data[i] = float32(e)
		sum += e
	}
	if sum == 0 {
		sum = 1
	}
	for i := range out.Data {
		out.Data[i] = float32(float64(out.Data[i]) / sum)
	}
	return out, nil
}

// Params implements Layer.
func (s *Softmax) Params() []Param { return nil }

// Cost implements Layer.
func (s *Softmax) Cost(in [][]int) (uint64, error) { return 0, nil }

// Flatten reshapes any input into a rank-1 vector.
type Flatten struct {
	name string
}

// NewFlatten creates a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Kind implements Layer.
func (f *Flatten) Kind() string { return "RESHAPE" }

// OutShape implements Layer.
func (f *Flatten) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	return []int{shapeVolume(s)}, nil
}

// Forward implements Layer: a cached flat view of the input data (no
// copy).
func (f *Flatten) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	return s.View(f.name, "/out", x.Data, x.Size())
}

// Params implements Layer.
func (f *Flatten) Params() []Param { return nil }

// Cost implements Layer.
func (f *Flatten) Cost(in [][]int) (uint64, error) { return 0, nil }

// Backward implements Backprop: dx is dy in x's shape.
func (f *Flatten) Backward(x, dy *tensor.Tensor, s *Scratch, wantDX bool) (*tensor.Tensor, error) {
	if x.Size() != dy.Size() {
		return nil, fmt.Errorf("%w: flatten %q backward size mismatch", ErrShape, f.name)
	}
	if !wantDX {
		return nil, nil
	}
	dx := s.TensorLike(f.name, "/dx", x)
	copy(dx.Data, dy.Data)
	return dx, nil
}

// Grads implements Backprop.
func (f *Flatten) Grads() []Param { return nil }

// ZeroGrads implements Backprop.
func (f *Flatten) ZeroGrads() {}
