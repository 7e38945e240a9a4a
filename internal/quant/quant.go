// Package quant implements TensorFlow-Lite-style post-training hybrid
// int8 quantization: real_value = (int8_value - zero_point) * scale, with
// per-tensor min/max calibration — the quantization scheme the paper
// applies before layering its compression on top (Table III, Sec. IV-D).
//
// The composed pipeline is: quantize a layer's weights to int8; feed the
// int8 succession (as integers) to the core compression, which exploits
// its monotonic micro-structure exactly as it does float weights; and at
// inference time decompress, round back to int8, and dequantize. The two
// transforms act on orthogonal aspects of the representation: bit width
// versus serialized monotonic trend.
package quant

import (
	"errors"
	"fmt"
	"math"
)

// Params8 is a per-tensor affine int8 quantization.
type Params8 struct {
	Scale     float64
	ZeroPoint int
}

// ErrEmpty is returned when there is nothing to quantize.
var ErrEmpty = errors.New("quant: empty tensor")

// Calibrate derives per-tensor affine parameters from the value range,
// mapping [min, max] onto [-128, 127]. Degenerate (constant) tensors get
// a unit scale centred on the value.
func Calibrate(w []float64) (Params8, error) {
	if len(w) == 0 {
		return Params8{}, ErrEmpty
	}
	min, max := w[0], w[0]
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Params8{}, fmt.Errorf("quant: non-finite value %v", v)
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min > 0 {
		min = 0 // TFLite requires the real value 0 to be representable
	}
	if max < 0 {
		max = 0
	}
	if max == min {
		return Params8{Scale: 1, ZeroPoint: 0}, nil
	}
	scale := (max - min) / 255.0
	zp := int(math.Round(-128 - min/scale))
	if zp < -128 {
		zp = -128
	}
	if zp > 127 {
		zp = 127
	}
	return Params8{Scale: scale, ZeroPoint: zp}, nil
}

// Tensor8 is a quantized tensor.
type Tensor8 struct {
	Vals []int8
	P    Params8
}

// Quantize converts a float succession to int8 with calibrated affine
// parameters.
func Quantize(w []float64) (*Tensor8, error) {
	p, err := Calibrate(w)
	if err != nil {
		return nil, err
	}
	t := &Tensor8{Vals: make([]int8, len(w)), P: p}
	for i, v := range w {
		t.Vals[i] = p.quantizeOne(v)
	}
	return t, nil
}

func (p Params8) quantizeOne(v float64) int8 {
	q := math.Round(v/p.Scale) + float64(p.ZeroPoint)
	if q < -128 {
		q = -128
	}
	if q > 127 {
		q = 127
	}
	return int8(q)
}

// dequantizeOne maps an int8 code back to a real value.
func (p Params8) dequantizeOne(q int8) float64 {
	return (float64(q) - float64(p.ZeroPoint)) * p.Scale
}

// Dequantize reconstructs the real-valued succession.
func (t *Tensor8) Dequantize() []float64 {
	out := make([]float64, len(t.Vals))
	for i, q := range t.Vals {
		out[i] = t.P.dequantizeOne(q)
	}
	return out
}

// Stream exposes the int8 codes as a float64 succession — the form the
// core compression consumes when applied on top of quantization.
func (t *Tensor8) Stream() []float64 {
	out := make([]float64, len(t.Vals))
	for i, q := range t.Vals {
		out[i] = float64(q)
	}
	return out
}

// FromStream rebuilds a quantized tensor from a (possibly approximated)
// code stream, rounding and clamping each code to int8 — what the PE does
// after the decompression unit regenerates approximated codes.
func FromStream(codes []float64, p Params8) (*Tensor8, error) {
	if len(codes) == 0 {
		return nil, ErrEmpty
	}
	t := &Tensor8{Vals: make([]int8, len(codes)), P: p}
	for i, c := range codes {
		q := math.Round(c)
		if q < -128 {
			q = -128
		}
		if q > 127 {
			q = 127
		}
		t.Vals[i] = int8(q)
	}
	return t, nil
}

// Bytes returns the storage size of the quantized tensor: one byte per
// value plus the affine parameters.
func (t *Tensor8) Bytes() int { return len(t.Vals) + 8 }

// ZigZag8 maps an int8 code to an unsigned byte so that small
// magnitudes become small values: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
// Weight tensors quantize to codes concentrated near the zero point, so
// the zigzagged stream has its high bit planes mostly zero — the
// property the bit-plane and entropy codecs exploit.
func ZigZag8(v int8) uint8 {
	return uint8((int16(v) << 1) ^ (int16(v) >> 7))
}

// UnZigZag8 inverts ZigZag8.
func UnZigZag8(z uint8) int8 {
	return int8((int16(z) >> 1) ^ -(int16(z) & 1))
}

// MaxQuantError returns the worst-case rounding error of the affine
// quantization, scale/2.
func (p Params8) MaxQuantError() float64 { return p.Scale / 2 }
