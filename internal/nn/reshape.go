package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Reshape reinterprets its input with a fixed target shape of equal
// volume. MobileNet and Inception use it to turn the global-average-pooled
// [C] vector back into a [1, 1, C] map for the final 1x1 "prediction"
// convolution, matching the Keras topologies of Table I.
type Reshape struct {
	name  string
	shape []int
}

// NewReshape creates a reshape layer targeting the given shape.
func NewReshape(name string, shape ...int) (*Reshape, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("nn: reshape %q: empty target shape", name)
	}
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("nn: reshape %q: non-positive dimension in %v", name, shape)
		}
	}
	return &Reshape{name: name, shape: append([]int(nil), shape...)}, nil
}

// Name implements Layer.
func (r *Reshape) Name() string { return r.name }

// Kind implements Layer.
func (r *Reshape) Kind() string { return "RESHAPE" }

// OutShape implements Layer.
func (r *Reshape) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	if shapeVolume(s) != shapeVolume(r.shape) {
		return nil, fmt.Errorf("%w: reshape %q: volume %v vs %v", ErrShape, r.name, s, r.shape)
	}
	return append([]int(nil), r.shape...), nil
}

// Forward implements Layer: a cached view over the input's backing data
// with the target shape (no copy).
func (r *Reshape) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	return s.View(r.name, "/out", x.Data, r.shape...)
}

// Params implements Layer.
func (r *Reshape) Params() []Param { return nil }

// Cost implements Layer.
func (r *Reshape) Cost(in [][]int) (uint64, error) { return 0, nil }
