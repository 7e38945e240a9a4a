// Package tensor provides the dense numeric arrays used by the CNN
// substrate: row-major float32 tensors with shape/stride bookkeeping,
// initialization helpers, and the im2col transformation that turns
// convolutions into matrix multiplies.
//
// float32 is the storage type throughout — it matches the accelerator's
// datapath width and halves the memory footprint of the 138M-parameter
// VGG-16 model; accumulations are performed in float64 where it matters.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Tensor is a dense row-major array of float32 values.
type Tensor struct {
	shape   []int
	strides []int
	Data    []float32
}

// New allocates a zero-filled tensor with the given shape. All dimensions
// must be positive.
func New(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dimension %d in %v", d, shape)
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  make([]float32, n),
	}
	t.computeStrides()
	return t, nil
}

// MustNew is New but panics on error; for statically correct shapes.
func MustNew(shape ...int) *Tensor {
	t, err := New(shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The data is not
// copied; the caller must not alias it unexpectedly. The element count
// must match the shape volume.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, shapeErr("tensor: non-positive dimension in %v", shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, shapeErr(fmt.Sprintf("tensor: %d elements for shape %%v (want %d)", len(data), n), shape)
	}
	t := &Tensor{shape: append([]int(nil), shape...), Data: data}
	t.computeStrides()
	return t, nil
}

// shapeErr formats a shape error from a copy of the shape slice. The copy
// keeps the (rare) error path from leaking the caller's variadic shape
// argument to the heap, so the zero-allocation fast paths built on
// FromSlice stay allocation-free.
func shapeErr(format string, shape []int) error {
	return fmt.Errorf(format, append([]int(nil), shape...))
}

func (t *Tensor) computeStrides() {
	t.strides = make([]int, len(t.shape))
	s := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= t.shape[i]
	}
}

// Shape returns a copy of the tensor's dimensions. The copy is
// defensive: mutating it cannot corrupt the tensor's shape/stride
// bookkeeping. Hot paths that only need single dimensions should use
// Dim/Rank, which do not allocate.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total element count.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the i-th dimension.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// At returns the element at the given multi-index. It panics on rank
// mismatch or out-of-range indices (programming errors, like slice
// indexing).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	data := make([]float32, len(t.Data))
	copy(data, t.Data)
	out, _ := FromSlice(data, t.shape...)
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// RandNormal fills the tensor with N(mean, std) samples from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(float64(rng.NormFloat64()*std) + mean)
	}
}

// RandUniform fills the tensor with uniform samples in [lo, hi).
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + float64(rng.Float64()*(hi-lo)))
	}
}

// Float64s returns a copy of the data widened to float64 — the parameter
// succession form consumed by the compression core. Tensors above
// parallel.Grain elements are widened in chunks on GOMAXPROCS goroutines.
func (t *Tensor) Float64s() []float64 { return float64s(t.Data, parallel.Grain, 0) }

// float64s widens src in chunks of grain elements on up to width
// goroutines.
func float64s(src []float32, grain, width int) []float64 {
	out := make([]float64, len(src))
	parallel.Fold(len(src), grain, width, widening{out, src}, widen, nil)
	return out
}

// widening is a float32 slice and the float64 slice it is widened into.
type widening struct {
	dst []float64
	src []float32
}

// widen widens the chunk [lo, hi).
func widen(a widening, lo, hi int) struct{} {
	dst, src := a.dst[lo:hi], a.src[lo:hi]
	for i, v := range src {
		dst[i] = float64(v)
	}
	return struct{}{}
}

// SetFloat64s overwrites the tensor data from a float64 slice (narrowing
// to float32), e.g. to install decompressed approximated parameters.
func (t *Tensor) SetFloat64s(vals []float64) error {
	if len(vals) != len(t.Data) {
		return fmt.Errorf("tensor: SetFloat64s got %d values for %d elements", len(vals), len(t.Data))
	}
	for i, v := range vals {
		t.Data[i] = float32(v)
	}
	return nil
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Add computes a + b elementwise into a new tensor.
func Add(a, b *Tensor) (*Tensor, error) {
	if !SameShape(a, b) {
		return nil, fmt.Errorf("tensor: Add shape mismatch %v vs %v", a.shape, b.shape)
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out, nil
}

// Scale multiplies every element by s, in place, and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// ErrShape reports incompatible operand shapes in MatMulInto and friends.
var ErrShape = errors.New("tensor: incompatible shapes")

// ConvOutDim returns the output spatial size for one dimension, or 0 when
// the kernel does not fit even once.
func ConvOutDim(in, k, stride, pad int) int {
	num := in + 2*pad - k
	if num < 0 {
		return 0
	}
	return num/stride + 1
}

// AllFinite reports whether every element is a finite number. It tests
// the exponent bits (all ones only for Inf and NaN), which keeps it cheap
// enough for the conv layer to run on every forward.
func (t *Tensor) AllFinite() bool {
	for _, v := range t.Data {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// String summarizes the tensor for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v[%d elems]", t.shape, len(t.Data))
}
