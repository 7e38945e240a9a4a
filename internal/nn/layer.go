// Package nn is the CNN inference substrate: layers (convolution, dense,
// pooling, batch normalization, activations, merge nodes), a DAG graph
// executor, and parameter enumeration.
//
// Tensors are per-sample [H, W, C] (channels last) or flat [D] vectors;
// batching is handled by the caller looping over samples, which keeps the
// layer implementations simple and the memory footprint of the very large
// models bounded.
//
// Every layer has exactly one forward implementation, Layer.Forward,
// which draws its output and work buffers from a Scratch arena, and a
// Runner (Graph.WithScratch, or a warm one from Graph.AcquireRunner) is
// the only graph executor. Runner outputs are arena views, valid until
// the Runner's next forward call.
//
// Every product that feeds an add is converted explicitly (float32(a*b),
// float64(x*y)), so no compiler may fuse the two into one rounding:
// the loops stay bit-identical to their references on every
// architecture (see the tensor package's kernel contract).
//
// The package exposes everything the rest of the system needs from a
// model: Runner forwards for training and accuracy/fidelity evaluation,
// Params for the compression core's parameter succession, and
// Cost/OutShape for the accelerator simulator's traffic and computation
// geometry.
package nn

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// Param is one named parameter tensor of a layer.
type Param struct {
	Name string
	T    *tensor.Tensor
}

// Layer is a node of a CNN computation graph.
type Layer interface {
	// Name returns the unique layer name (e.g. "dense_1").
	Name() string
	// Kind returns the layer type tag (e.g. "FC", "CONV").
	Kind() string
	// OutShape computes the output shape for the given input shapes.
	OutShape(in [][]int) ([]int, error)
	// Forward applies the layer to its inputs. Most layers take exactly
	// one input; merge layers (Add, Concat) take several. Output and
	// work buffers come from s, keyed by the layer name, so the result
	// (an arena buffer, or a view of an input for the reshaping layers)
	// is valid until the next forward through s.
	Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error)
	// Params returns the layer's parameter tensors. Weights come first;
	// an empty slice means a parameter-free layer.
	Params() []Param
	// Cost returns the multiply-accumulate count of one forward pass
	// given the input shapes; parameter-free layers may return 0.
	Cost(in [][]int) (uint64, error)
}

// Backprop is implemented by layers that support gradient computation,
// enough to train the small networks (LeNet-5) for real.
type Backprop interface {
	Layer
	// Backward consumes the forward input x and upstream gradient dy and
	// accumulates parameter gradients. With wantDX it also returns dx;
	// without, it returns nil and skips that work (a network's first
	// layer). Work buffers and dx come from s, keyed by the layer name,
	// so dx is valid until the next Backward of this layer through s.
	Backward(x, dy *tensor.Tensor, s *Scratch, wantDX bool) (*tensor.Tensor, error)
	// Grads returns gradient tensors parallel to Params().
	Grads() []Param
	// ZeroGrads clears accumulated gradients.
	ZeroGrads()
}

// Common layer errors.
var (
	ErrArity = errors.New("nn: wrong number of inputs")
	ErrShape = errors.New("nn: bad input shape")
)

func wantOne(xs []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(xs) != 1 {
		return nil, fmt.Errorf("%w: got %d, want 1", ErrArity, len(xs))
	}
	return xs[0], nil
}

func wantOneShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("%w: got %d, want 1", ErrArity, len(in))
	}
	return in[0], nil
}

// NumParams returns the total parameter count of a layer.
func NumParams(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.T.Size()
	}
	return n
}

// WeightStream flattens every parameter tensor of a layer, in order, into
// one float64 succession — the W = {w_1 ... w_n} the compression core
// consumes. The serialization order is fixed (Params order, row-major), so
// SetWeightStream can install a modified stream back.
func WeightStream(l Layer) []float64 {
	out := make([]float64, 0, NumParams(l))
	for _, p := range l.Params() {
		for _, v := range p.T.Data {
			out = append(out, float64(v))
		}
	}
	return out
}

// SetWeightStream installs a flat parameter succession back into the
// layer's tensors, inverse of WeightStream.
func SetWeightStream(l Layer, w []float64) error {
	if len(w) != NumParams(l) {
		return fmt.Errorf("nn: stream has %d values, layer %q has %d params", len(w), l.Name(), NumParams(l))
	}
	i := 0
	for _, p := range l.Params() {
		for j := range p.T.Data {
			p.T.Data[j] = float32(w[i])
			i++
		}
	}
	return nil
}

func shapeVolume(s []int) int {
	v := 1
	for _, d := range s {
		v *= d
	}
	return v
}
