package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b with W of shape [in, out].
type Dense struct {
	name    string
	In, Out int
	W       *tensor.Tensor // [in, out]
	B       *tensor.Tensor // [out]
	dW      *tensor.Tensor
	dB      *tensor.Tensor
}

// NewDense creates a fully connected layer with Glorot-uniform initialized
// weights and zero bias.
func NewDense(name string, in, out int, rng *rand.Rand) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense %q: bad dims in=%d out=%d", name, in, out)
	}
	d := &Dense{
		name: name, In: in, Out: out,
		W: tensor.MustNew(in, out),
		B: tensor.MustNew(out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	d.W.RandUniform(rng, -limit, limit)
	return d, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Kind implements Layer.
func (d *Dense) Kind() string { return "FC" }

// OutShape implements Layer.
func (d *Dense) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	if shapeVolume(s) != d.In {
		return nil, fmt.Errorf("%w: dense %q wants %d inputs, got shape %v", ErrShape, d.name, d.In, s)
	}
	return []int{d.Out}, nil
}

// Forward implements Layer: y_j = sum_i x_i W_ij + b_j, accumulated in
// float64 and iterated i-major so W rows stream. Zero inputs (±0) are
// skipped. Every output adds its terms x_i·W_ij one at a time in
// ascending i; the accumulator is swept once per four non-zero rows
// (tensor.Daxpy4), which changes how often acc is loaded and stored, not
// the order or rounding of any add. Inputs of any rank are accepted as
// long as the volume matches (an implicit flatten, as Keras dense layers
// behave after Flatten).
func (d *Dense) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	if x.Size() != d.In {
		return nil, fmt.Errorf("%w: dense %q wants %d inputs, got %d", ErrShape, d.name, d.In, x.Size())
	}
	out := s.Tensor(d.name, "/out", d.Out)
	acc := s.Float64s(d.name, "/acc", d.Out)
	clear(acc)
	var (
		xv   [4]float64
		rows [4][]float32
		n    int
	)
	for i, xi := range x.Data {
		if xi == 0 {
			continue
		}
		xv[n], rows[n] = float64(xi), d.W.Data[i*d.Out:(i+1)*d.Out]
		if n++; n == 4 {
			tensor.Daxpy4(acc, &xv, &rows)
			n = 0
		}
	}
	for k := range n {
		row := rows[k][:len(acc)]
		for j := range acc {
			acc[j] += float64(xv[k] * float64(row[j]))
		}
	}
	for j := range out.Data {
		out.Data[j] = float32(acc[j] + float64(d.B.Data[j]))
	}
	return out, nil
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{{Name: "weights", T: d.W}, {Name: "bias", T: d.B}}
}

// Cost implements Layer: in*out MACs.
func (d *Dense) Cost(in [][]int) (uint64, error) {
	if _, err := d.OutShape(in); err != nil {
		return 0, err
	}
	return uint64(d.In) * uint64(d.Out), nil
}

// Backward implements Backprop: dW_ij += x_i·dy_j, dB_j += dy_j and,
// with wantDX, dx_i = sum_j W_ij·dy_j in float64 (ascending j, from +0).
// A zero x_i adds ±0 to dW's row i, which leaves a sum that started at +0
// unchanged, so the row is skipped unless dy holds a non-finite value
// (whose product with 0 would be NaN). The dx sums sweep the rows of
// W^T for the live dy_j (accumulateRows), so a ReLU-masked zero costs
// nothing unless W holds a non-finite value; W^T and W's finiteness come
// from s's Prep when it has one.
func (d *Dense) Backward(x, dy *tensor.Tensor, s *Scratch, wantDX bool) (*tensor.Tensor, error) {
	if x.Size() != d.In || dy.Size() != d.Out {
		return nil, fmt.Errorf("%w: dense %q backward x=%d dy=%d", ErrShape, d.name, x.Size(), dy.Size())
	}
	d.ensureGrads()
	dyFinite := dy.AllFinite()
	for i, xv := range x.Data {
		if xv == 0 && dyFinite {
			continue
		}
		tensor.Saxpy(d.dW.Data[i*d.Out:(i+1)*d.Out], xv, dy.Data)
	}
	for j, dyj := range dy.Data {
		d.dB.Data[j] += dyj
	}
	if !wantDX {
		return nil, nil
	}
	dx := s.Tensor(d.name, "/dx", d.In)
	acc := s.Float64s(d.name, "/acc", d.In)
	clear(acc)
	accumulateRows(acc, dy.Data, transposedW(s, d.W), finiteW(s, d.W))
	for i, v := range acc {
		dx.Data[i] = float32(v)
	}
	return dx, nil
}

func (d *Dense) ensureGrads() {
	if d.dW == nil {
		d.dW = tensor.MustNew(d.In, d.Out)
		d.dB = tensor.MustNew(d.Out)
	}
}

// Grads implements Backprop.
func (d *Dense) Grads() []Param {
	d.ensureGrads()
	return []Param{{Name: "weights", T: d.dW}, {Name: "bias", T: d.dB}}
}

// ZeroGrads implements Backprop.
func (d *Dense) ZeroGrads() {
	if d.dW != nil {
		d.dW.Zero()
		d.dB.Zero()
	}
}
