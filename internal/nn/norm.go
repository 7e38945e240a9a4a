package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// BatchNorm is inference-mode batch normalization over the channel (last)
// dimension: y = gamma * (x - mean) / sqrt(var + eps) + beta.
// All four per-channel vectors count as model parameters, matching how
// Keras reports parameter totals for MobileNet/Inception/ResNet.
type BatchNorm struct {
	name  string
	C     int
	Eps   float32
	Gamma *tensor.Tensor // [C] scale
	Beta  *tensor.Tensor // [C] shift
	Mean  *tensor.Tensor // [C] moving mean
	Var   *tensor.Tensor // [C] moving variance
}

// NewBatchNorm creates an inference batch-normalization layer with
// synthetic "trained" statistics: gamma ~ N(1, 0.1), beta ~ N(0, 0.1),
// mean ~ N(0, 0.2), var ~ |N(1, 0.2)|.
func NewBatchNorm(name string, c int, rng *rand.Rand) (*BatchNorm, error) {
	if c <= 0 {
		return nil, fmt.Errorf("nn: batchnorm %q: bad channel count %d", name, c)
	}
	b := &BatchNorm{
		name: name, C: c, Eps: 1e-3,
		Gamma: tensor.MustNew(c),
		Beta:  tensor.MustNew(c),
		Mean:  tensor.MustNew(c),
		Var:   tensor.MustNew(c),
	}
	b.Gamma.RandNormal(rng, 1, 0.1)
	b.Beta.RandNormal(rng, 0, 0.1)
	b.Mean.RandNormal(rng, 0, 0.2)
	for i := range b.Var.Data {
		v := float32(math.Abs(float64(rng.NormFloat64()*0.2) + 1))
		if v < 0.05 {
			v = 0.05
		}
		b.Var.Data[i] = v
	}
	return b, nil
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.name }

// Kind implements Layer.
func (b *BatchNorm) Kind() string { return "BN" }

// OutShape implements Layer.
func (b *BatchNorm) OutShape(in [][]int) ([]int, error) {
	s, err := wantOneShape(in)
	if err != nil {
		return nil, err
	}
	if len(s) == 0 || s[len(s)-1] != b.C {
		return nil, fmt.Errorf("%w: batchnorm %q wants trailing dim %d, got %v", ErrShape, b.name, b.C, s)
	}
	return s, nil
}

// checkInput validates the trailing channel dimension without allocating
// shape slices.
func (b *BatchNorm) checkInput(x *tensor.Tensor) error {
	if x.Rank() == 0 || x.Dim(x.Rank()-1) != b.C {
		return fmt.Errorf("%w: batchnorm %q wants trailing dim %d, got %v", ErrShape, b.name, b.C, x.Shape())
	}
	return nil
}

// Forward implements Layer: the per-channel scale and shift are computed
// into scratch buffers, then applied at every position.
func (b *BatchNorm) Forward(xs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	x, err := wantOne(xs)
	if err != nil {
		return nil, err
	}
	if err := b.checkInput(x); err != nil {
		return nil, err
	}
	out := s.TensorLike(b.name, "/out", x)
	scale := s.Floats(b.name, "/scale", b.C)
	shift := s.Floats(b.name, "/shift", b.C)
	for ch := 0; ch < b.C; ch++ {
		inv := float32(1 / math.Sqrt(float64(b.Var.Data[ch]+b.Eps)))
		scale[ch] = b.Gamma.Data[ch] * inv
		shift[ch] = b.Beta.Data[ch] - float32(b.Mean.Data[ch]*scale[ch])
	}
	n := x.Size() / b.C
	for i := 0; i < n; i++ {
		src := x.Data[i*b.C : (i+1)*b.C]
		drow := out.Data[i*b.C : (i+1)*b.C]
		for ch := 0; ch < b.C; ch++ {
			drow[ch] = float32(src[ch]*scale[ch]) + shift[ch]
		}
	}
	return out, nil
}

// Params implements Layer.
func (b *BatchNorm) Params() []Param {
	return []Param{
		{Name: "gamma", T: b.Gamma},
		{Name: "beta", T: b.Beta},
		{Name: "moving_mean", T: b.Mean},
		{Name: "moving_variance", T: b.Var},
	}
}

// Cost implements Layer: one MAC per element (scale and shift).
func (b *BatchNorm) Cost(in [][]int) (uint64, error) {
	s, err := b.OutShape(in)
	if err != nil {
		return 0, err
	}
	return uint64(shapeVolume(s)), nil
}
