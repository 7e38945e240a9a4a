package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The references below are the straightforward per-element loops that
// the Dense, Pool2D and ReLU forwards replaced. Each forward must match
// its reference bit for bit on every input, non-finite ones included.

// refDenseForward accumulates y_j = sum_i x_i W_ij + b_j in float64,
// one row at a time in ascending i, skipping zero inputs.
func refDenseForward(d *Dense, x []float32) []float32 {
	acc := make([]float64, d.Out)
	for i, xi := range x {
		xv := float64(xi)
		if xv == 0 {
			continue
		}
		row := d.W.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			acc[j] += xv * float64(row[j])
		}
	}
	out := make([]float32, d.Out)
	for j := range out {
		out[j] = float32(acc[j] + float64(d.B.Data[j]))
	}
	return out
}

// refPoolForward reduces each channel of each window on its own,
// testing every tap against the input bounds.
func refPoolForward(p *Pool2D, x *tensor.Tensor) []float32 {
	h, w, c := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := tensor.ConvOutDim(h, p.Size, p.Stride, p.Pad)
	ow := tensor.ConvOutDim(w, p.Size, p.Stride, p.Pad)
	out := make([]float32, oh*ow*c)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < c; ch++ {
				best := float32(math.Inf(-1))
				var sum float64
				count := 0
				for ky := 0; ky < p.Size; ky++ {
					iy := oy*p.Stride + ky - p.Pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.Size; kx++ {
						ix := ox*p.Stride + kx - p.Pad
						if ix < 0 || ix >= w {
							continue
						}
						v := x.Data[(iy*w+ix)*c+ch]
						if v > best {
							best = v
						}
						sum += float64(v)
						count++
					}
				}
				var v float32
				if count == 0 {
					v = 0
				} else if p.kind == poolMax {
					v = best
				} else {
					v = float32(sum / float64(count))
				}
				out[(oy*ow+ox)*c+ch] = v
			}
		}
	}
	return out
}

// refReLUForward clips each element with float comparisons.
func refReLUForward(r *ReLU, x []float32) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		} else if r.Max > 0 && v > r.Max {
			v = r.Max
		}
		out[i] = v
	}
	return out
}

// specialValues are the float32 operands whose ordering, sign or
// NaN-ness a rewritten loop could treat differently from its reference.
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001),
	math.Float32frombits(1), math.Float32frombits(0x80000001), // ± smallest denormal
	math.MaxFloat32, -math.MaxFloat32,
	1, -1, 6, -6, math.Nextafter32(6, 7), math.Nextafter32(6, 0),
}

// assertSameBits requires equal bits, except that a NaN matches any NaN:
// when both operands of an add are NaN, which payload survives depends
// on the operand order the compiler picks (Go, like IEEE 754, leaves it
// unspecified), so the reference itself only fixes that the result is a
// NaN.
func assertSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestDenseMatchesReference pins Dense.Forward to the one-row-at-a-time
// loop, once per kernel set (tensor.Daxpy4 is dispatched). In sweeps
// every remainder modulo 4. Zero and -0 inputs face ±Inf/NaN weights,
// so a forward that multiplied them in would emit NaN.
// In the cancellation trials every output adds exactly three non-zero
// terms, 2^60, −2^60 and 1, on random rows; the sum is 1 when the 1 comes
// last and 0 otherwise (2^60 + 1 rounds to 2^60 in float64), so a change
// in the order of the adds changes some output.
func TestDenseMatchesReference(t *testing.T) { forEachMatMulKernel(t, checkDenseMatchesReference) }

func checkDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, in := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 84, 120, 400, 401} {
		for _, out := range []int{1, 3, 10, 84, 120} {
			d, err := NewDense("fc", in, out, rng)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.MustNew(in)
			s := NewScratch() // reused: stale accumulators must not leak
			for trial := 0; trial < 6; trial++ {
				cancel := trial >= 2
				var live []int // rows with a non-zero input
				for i := range x.Data {
					switch r := rng.Float64(); {
					case r < 0.3:
						x.Data[i] = 0
					case r < 0.4:
						x.Data[i] = float32(math.Copysign(0, -1))
					case cancel:
						x.Data[i] = []float32{1, -1, 2, -2}[rng.Intn(4)]
					default:
						x.Data[i] = float32(rng.NormFloat64())
					}
					if x.Data[i] != 0 {
						live = append(live, i)
					}
				}
				for i, xi := range x.Data {
					row := d.W.Data[i*out : (i+1)*out]
					for j := range row {
						switch {
						case xi == 0 && rng.Intn(3) == 0:
							row[j] = specialValues[2+rng.Intn(5)] // ±Inf or a NaN
						case cancel:
							row[j] = 0
						default:
							row[j] = float32(rng.NormFloat64())
						}
					}
				}
				if cancel && len(live) >= 3 {
					for j := 0; j < out; j++ {
						for _, term := range []float32{1 << 60, -1 << 60, 1} {
							i := live[rng.Intn(len(live))]
							for d.W.Data[i*out+j] != 0 { // three distinct rows
								i = live[rng.Intn(len(live))]
							}
							d.W.Data[i*out+j] = term / x.Data[i]
						}
					}
				}
				for j := range d.B.Data {
					d.B.Data[j] = float32(rng.NormFloat64())
					if cancel {
						d.B.Data[j] = 0
					}
				}
				y, err := d.Forward([]*tensor.Tensor{x}, s)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, fmt.Sprintf("dense in=%d out=%d trial %d", in, out, trial),
					y.Data, refDenseForward(d, x.Data))
			}
		}
	}
}

// TestPoolMatchesReference pins Pool2D.Forward to the per-channel loop
// for max and average pooling over pads 0-2 and strides 1-3, on inputs
// seeded with special values, with all-NaN windows (max must give −Inf)
// and windows holding −Inf. Size 1 with pad 1 leaves border windows with
// no in-bounds tap.
func TestPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{{28, 28, 6}, {10, 10, 16}, {7, 5, 3}, {4, 4, 1}, {3, 8, 2}}
	for _, sh := range shapes {
		x := tensor.MustNew(sh[0], sh[1], sh[2])
		for i := range x.Data {
			if rng.Intn(5) == 0 {
				x.Data[i] = specialValues[rng.Intn(len(specialValues))]
			} else {
				x.Data[i] = float32(rng.NormFloat64())
			}
		}
		// An all-NaN 2x2 block at the top left, and −Inf in channel 0 of
		// the 2x2 block diagonally below it.
		c, w := sh[2], sh[1]
		for _, at := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			for ch := 0; ch < c; ch++ {
				x.Data[(at[0]*w+at[1])*c+ch] = float32(math.NaN())
			}
		}
		if sh[0] >= 4 && sh[1] >= 4 {
			for _, at := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
				x.Data[(at[0]*w+at[1])*c] = float32(math.Inf(-1))
			}
		}
		s := NewScratch() // reused: stale outputs and sums must not leak
		for _, kind := range []poolKind{poolMax, poolAvg} {
			for size := 1; size <= 3; size++ {
				for stride := 1; stride <= 3; stride++ {
					for pad := 0; pad <= 2; pad++ {
						if tensor.ConvOutDim(sh[0], size, stride, pad) <= 0 ||
							tensor.ConvOutDim(sh[1], size, stride, pad) <= 0 {
							continue
						}
						p, err := newPool("p", kind, size, stride, pad)
						if err != nil {
							t.Fatal(err)
						}
						y, err := p.Forward([]*tensor.Tensor{x}, s)
						if err != nil {
							t.Fatal(err)
						}
						assertSameBits(t, fmt.Sprintf("pool kind=%d %v size=%d stride=%d pad=%d", kind, sh, size, stride, pad),
							y.Data, refPoolForward(p, x))
					}
				}
			}
		}
	}
	// Signed-zero ties: +0 > −0 is false, so max keeps whichever zero
	// comes first in each channel (−0 in channel 0, +0 in channel 1).
	negZero := float32(math.Copysign(0, -1))
	x := tensor.MustNew(2, 2, 2)
	copy(x.Data, []float32{negZero, 0, 0, negZero, -1, float32(math.Inf(-1)), 0, negZero})
	for _, kind := range []poolKind{poolMax, poolAvg} {
		for _, pad := range []int{0, 1} {
			p, _ := newPool("p", kind, 2, 2-pad, pad)
			y, err := p.Forward([]*tensor.Tensor{x}, NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, fmt.Sprintf("pool kind=%d signed zeros pad=%d", kind, pad), y.Data, refPoolForward(p, x))
		}
	}
	// The all-NaN window alone: max gives −Inf, average NaN.
	x = tensor.MustNew(2, 2, 1)
	x.Fill(float32(math.NaN()))
	for _, kind := range []poolKind{poolMax, poolAvg} {
		p, _ := newPool("p", kind, 2, 2, 0)
		y, err := p.Forward([]*tensor.Tensor{x}, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if kind == poolMax && !math.IsInf(float64(y.Data[0]), -1) {
			t.Errorf("max over an all-NaN window = %v, want -Inf", y.Data[0])
		}
		if kind == poolAvg && !math.IsNaN(float64(y.Data[0])) {
			t.Errorf("average over an all-NaN window = %v, want NaN", y.Data[0])
		}
	}
}

// TestReLUMatchesReference pins ReLU and ReLU6 to the float-compare
// loop on every special value (±0, NaNs of both signs, ±Inf, denormals,
// the values around 6) and on a normal draw.
func TestReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.MustNew(len(specialValues) + 1000)
	copy(x.Data, specialValues)
	for i := len(specialValues); i < len(x.Data); i++ {
		x.Data[i] = float32(rng.NormFloat64() * 4)
	}
	for _, r := range []*ReLU{NewReLU("relu"), NewReLU6("relu6")} {
		y, err := r.Forward([]*tensor.Tensor{x}, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, r.Name(), y.Data, refReLUForward(r, x.Data))
	}
}
