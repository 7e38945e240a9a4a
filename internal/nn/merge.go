package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Add sums two or more equal-shape inputs elementwise — the ResNet
// residual connection.
type Add struct {
	name string
}

// NewAdd creates an elementwise addition merge node.
func NewAdd(name string) *Add { return &Add{name: name} }

// Name implements Layer.
func (a *Add) Name() string { return a.name }

// Kind implements Layer.
func (a *Add) Kind() string { return "MERGE" }

// OutShape implements Layer.
func (a *Add) OutShape(in [][]int) ([]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("%w: add %q wants >= 2 inputs, got %d", ErrArity, a.name, len(in))
	}
	for _, s := range in[1:] {
		if len(s) != len(in[0]) {
			return nil, fmt.Errorf("%w: add %q rank mismatch %v vs %v", ErrShape, a.name, in[0], s)
		}
		for i := range s {
			if s[i] != in[0][i] {
				return nil, fmt.Errorf("%w: add %q shape mismatch %v vs %v", ErrShape, a.name, in[0], s)
			}
		}
	}
	return in[0], nil
}

// Forward implements Layer: a copy of xs[0], then += each later operand
// in turn.
func (a *Add) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	if len(xs) < 2 {
		return nil, fmt.Errorf("%w: add %q wants >= 2 inputs, got %d", ErrArity, a.name, len(xs))
	}
	out := s.TensorLike(a.name, "/out", xs[0])
	copy(out.Data, xs[0].Data)
	for _, x := range xs[1:] {
		if !tensor.SameShape(out, x) {
			return nil, fmt.Errorf("%w: add %q operands %v vs %v", ErrShape, a.name, out.Shape(), x.Shape())
		}
		for i, v := range x.Data {
			out.Data[i] += v
		}
	}
	return out, nil
}

// Params implements Layer.
func (a *Add) Params() []Param { return nil }

// Cost implements Layer.
func (a *Add) Cost(in [][]int) (uint64, error) { return 0, nil }

// Concat concatenates [H, W, C_i] inputs along the channel dimension —
// the Inception tower join.
type Concat struct {
	name string
}

// NewConcat creates a channel-concatenation merge node.
func NewConcat(name string) *Concat { return &Concat{name: name} }

// Name implements Layer.
func (c *Concat) Name() string { return c.name }

// Kind implements Layer.
func (c *Concat) Kind() string { return "MERGE" }

// OutShape implements Layer.
func (c *Concat) OutShape(in [][]int) ([]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("%w: concat %q wants >= 2 inputs, got %d", ErrArity, c.name, len(in))
	}
	first := in[0]
	if len(first) != 3 {
		return nil, fmt.Errorf("%w: concat %q wants [H W C] inputs, got %v", ErrShape, c.name, first)
	}
	totalC := first[2]
	for _, s := range in[1:] {
		if len(s) != 3 || s[0] != first[0] || s[1] != first[1] {
			return nil, fmt.Errorf("%w: concat %q spatial mismatch %v vs %v", ErrShape, c.name, first, s)
		}
		totalC += s[2]
	}
	return []int{first[0], first[1], totalC}, nil
}

// Forward implements Layer: the operands' channel slabs are interleaved
// pixel by pixel.
func (c *Concat) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	h, w, totalC, err := c.checkInputs(xs)
	if err != nil {
		return nil, err
	}
	out := s.Tensor(c.name, "/out", h, w, totalC)
	for p := 0; p < h*w; p++ {
		off := 0
		for _, x := range xs {
			ci := x.Dim(2)
			copy(out.Data[p*totalC+off:p*totalC+off+ci], x.Data[p*ci:(p+1)*ci])
			off += ci
		}
	}
	return out, nil
}

// checkInputs validates merge operands without allocating shape slices.
func (c *Concat) checkInputs(xs []*tensor.Tensor) (h, w, totalC int, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("%w: concat %q wants >= 2 inputs, got %d", ErrArity, c.name, len(xs))
	}
	first := xs[0]
	if first.Rank() != 3 {
		return 0, 0, 0, fmt.Errorf("%w: concat %q wants [H W C] inputs, got %v", ErrShape, c.name, first.Shape())
	}
	h, w, totalC = first.Dim(0), first.Dim(1), first.Dim(2)
	for _, x := range xs[1:] {
		if x.Rank() != 3 || x.Dim(0) != h || x.Dim(1) != w {
			return 0, 0, 0, fmt.Errorf("%w: concat %q spatial mismatch %v vs %v", ErrShape, c.name, first.Shape(), x.Shape())
		}
		totalC += x.Dim(2)
	}
	return h, w, totalC, nil
}

// Params implements Layer.
func (c *Concat) Params() []Param { return nil }

// Cost implements Layer.
func (c *Concat) Cost(in [][]int) (uint64, error) { return 0, nil }
