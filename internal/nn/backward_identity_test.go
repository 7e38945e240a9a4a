package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The references below are the Backward loops the scratch-based ones
// replaced, with every buffer allocated per call. Each Backward must
// match its reference bit for bit. The one exemption is assertSameBits'
// any-NaN rule, applied to the gradients that accumulate (conv and dense
// dx, dW and dB, pool dx): the rewritten loops add the same operands in
// the same order, but when both operands of an add are NaN the payload
// that survives is the one the compiler happens to make the destination
// of the machine add, and it picks differently for textually identical
// statements (Dense's dW add did, once its loop no longer shared a body
// with the dx sum). ReLU and Flatten copy or mask values without adding,
// so their dx must match NaN payloads too.

// refConvBackward lowers x into a fresh [P, k] matrix, adds cols^T·dy to
// dW pixel by pixel (skipping zero taps) and dy's column sums to dB, then
// forms dcols = dy·W^T as one float64 dot product per element and
// scatters it with refCol2Im.
func refConvBackward(c *Conv2D, dW, dB []float32, x, dy *tensor.Tensor) []float32 {
	h, w := x.Dim(0), x.Dim(1)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.PadH)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.PadW)
	k := c.KH * c.KW * c.InC
	cols := make([]float32, oh*ow*k)
	if _, _, err := tensor.Im2ColInto(cols, x, c.KH, c.KW, c.Stride, c.PadH, c.PadW); err != nil {
		panic(err)
	}
	for r := 0; r < oh*ow; r++ {
		crow := cols[r*k : (r+1)*k]
		drow := dy.Data[r*c.OutC : (r+1)*c.OutC]
		for i, cv := range crow {
			if cv == 0 {
				continue
			}
			grow := dW[i*c.OutC : (i+1)*c.OutC]
			for j, dv := range drow {
				grow[j] += cv * dv
			}
		}
	}
	for r := 0; r < oh*ow; r++ {
		for j, dv := range dy.Data[r*c.OutC : (r+1)*c.OutC] {
			dB[j] += dv
		}
	}
	dcols := make([]float32, oh*ow*k)
	for r := 0; r < oh*ow; r++ {
		drow := dy.Data[r*c.OutC : (r+1)*c.OutC]
		for i := 0; i < k; i++ {
			wrow := c.W.Data[i*c.OutC : (i+1)*c.OutC]
			var s float64
			for j := range drow {
				s += float64(wrow[j]) * float64(drow[j])
			}
			dcols[r*k+i] = float32(s)
		}
	}
	return refCol2Im(dcols, h, w, c.InC, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
}

// refCol2Im scatters a [outH*outW, kh*kw*c] column gradient back to the
// [H, W, C] layout, the adjoint of im2col: rows in ascending order, each
// row's taps row-major, overlapping contributions accumulating.
func refCol2Im(cols []float32, h, w, c, kh, kw, stride, padH, padW int) []float32 {
	outH := tensor.ConvOutDim(h, kh, stride, padH)
	outW := tensor.ConvOutDim(w, kw, stride, padW)
	x := make([]float32, h*w*c)
	row := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			src := cols[row*kh*kw*c : (row+1)*kh*kw*c]
			si := 0
			for ky := 0; ky < kh; ky++ {
				iy := oy*stride + ky - padH
				if iy < 0 || iy >= h {
					si += kw * c
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ox*stride + kx - padW
					if ix < 0 || ix >= w {
						si += c
						continue
					}
					dst := x[(iy*w+ix)*c : (iy*w+ix)*c+c]
					for j := 0; j < c; j++ {
						dst[j] += src[si+j]
					}
					si += c
				}
			}
			row++
		}
	}
	return x
}

// refDenseBackward adds x_i·dy_j to dW and dy to dB, and forms each dx_i
// as one float64 dot product of W's row i with dy.
func refDenseBackward(d *Dense, dW, dB, x, dy []float32) []float32 {
	dx := make([]float32, d.In)
	for i := 0; i < d.In; i++ {
		xv := x[i]
		wrow := d.W.Data[i*d.Out : (i+1)*d.Out]
		grow := dW[i*d.Out : (i+1)*d.Out]
		var s float64
		for j, dyj := range dy {
			grow[j] += xv * dyj
			s += float64(wrow[j]) * float64(dyj)
		}
		dx[i] = float32(s)
	}
	for j, dyj := range dy {
		dB[j] += dyj
	}
	return dx
}

// refReLUBackward clones dy and zeroes it outside the linear region.
func refReLUBackward(r *ReLU, x, dy []float32) []float32 {
	dx := append([]float32(nil), dy...)
	for i, v := range x {
		if v < 0 || (r.Max > 0 && v > r.Max) {
			dx[i] = 0
		}
	}
	return dx
}

// refPoolBackward visits each channel of each window on its own, testing
// every tap against the input bounds; average pooling collects the
// in-bounds taps in a slice before spreading the share over them.
func refPoolBackward(p *Pool2D, x, dy *tensor.Tensor) []float32 {
	h, w, c := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := tensor.ConvOutDim(h, p.Size, p.Stride, p.Pad)
	ow := tensor.ConvOutDim(w, p.Size, p.Stride, p.Pad)
	dx := make([]float32, h*w*c)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < c; ch++ {
				g := dy.Data[(oy*ow+ox)*c+ch]
				if g == 0 {
					continue
				}
				var taps []int
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
						taps = append(taps, (iy*w+ix)*c+ch)
					}
				}
				if p.kind == poolMax {
					bestIdx := -1
					best := float32(math.Inf(-1))
					for _, idx := range taps {
						if x.Data[idx] > best {
							best, bestIdx = x.Data[idx], idx
						}
					}
					if bestIdx >= 0 {
						dx[bestIdx] += g
					}
				} else if len(taps) > 0 {
					share := g / float32(len(taps))
					for _, idx := range taps {
						dx[idx] += share
					}
				}
			}
		}
	}
	return dx
}

// backValues fills v from a normal draw with a share of exact zeros (as
// a ReLU mask or a max-pool route leaves in a gradient, or a ReLU in an
// activation) and, with specials, a share of specialValues (±0, NaNs of
// both signs and payloads, ±Inf, denormals, extremes).
func backValues(v []float32, rng *rand.Rand, zeros float64, specials bool) {
	for i := range v {
		switch r := rng.Float64(); {
		case r < zeros:
			v[i] = 0
		case specials && r < zeros+0.1:
			v[i] = specialValues[rng.Intn(len(specialValues))]
		default:
			v[i] = float32(rng.NormFloat64())
		}
	}
}

// assertBits requires equal bits, NaN payloads included.
func assertBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// backwardModes say which operands carry special values. The finite mode
// lets Conv2D.Backward skip the zero terms of dy; each other mode must
// stop exactly the skips that its non-finite operand would change. In
// the cancel mode every weight is 2^60, -2^60 or 1 and dy is 0 or 1, so
// most dx sums add 2^60, -2^60 and 1 in some order; 2^60 + 1 rounds to
// 2^60 in float64, so a change in the order of the adds changes some dx.
var backwardModes = []struct {
	name                  string
	x, w, dy, all, cancel bool
}{
	{name: "finite"},
	{name: "x-special", x: true},
	{name: "w-special", w: true},
	{name: "dy-special", dy: true},
	{name: "all-special", all: true},
	{name: "cancel", cancel: true},
}

// cancelValues overwrites w with 2^60, -2^60 and 1 and dy with 0 and 1
// for the cancel mode.
func cancelValues(w, dy []float32, rng *rand.Rand) {
	for i := range w {
		w[i] = []float32{1 << 60, -(1 << 60), 1}[rng.Intn(3)]
	}
	for i := range dy {
		dy[i] = float32(rng.Intn(2))
	}
}

// TestBackwardMatchesReference pins every LeNet-5 layer's Backward to its
// reference loop. Each case makes three calls on fresh x and dy into
// the same gradients without ZeroGrads and through one reused arena, so
// stale dx or work buffers would show, and a second layer with the same
// weights takes the same calls without dx: its gradients must match the
// full calls' and it must return no dx.
func TestBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// convShapes without the deep layer, whose reference is too slow for
	// a unit test, then 34 drawn geometries that together take every
	// stride 1-3, InC 1-5 and OutC 1-17, with kernels 1-5 and pads 0-3
	// drawn per axis.
	shapes := convShapes[:0:0]
	for _, sh := range convShapes {
		if sh.inC*sh.outC <= 256 {
			shapes = append(shapes, sh)
		}
	}
	for i := 0; i < 34; {
		sh := convShapes[0]
		sh.name = fmt.Sprintf("drawn%d", i)
		sh.s, sh.inC, sh.outC = 1+i%3, 1+i%5, 1+i%17
		sh.kh, sh.kw, sh.padH, sh.padW = 1+rng.Intn(5), 1+rng.Intn(5), rng.Intn(4), rng.Intn(4)
		sh.h, sh.w = 1+rng.Intn(11), 1+rng.Intn(11)
		if tensor.ConvOutDim(sh.h, sh.kh, sh.s, sh.padH) > 0 && tensor.ConvOutDim(sh.w, sh.kw, sh.s, sh.padW) > 0 {
			shapes = append(shapes, sh)
			i++
		}
	}
	for _, sh := range shapes {
		for _, mode := range backwardModes {
			what := fmt.Sprintf("conv %s %+v %s", sh.name, sh, mode.name)
			c, err := NewConv2DRect("c", sh.kh, sh.kw, sh.inC, sh.outC, sh.s, sh.padH, sh.padW, rng)
			if err != nil {
				t.Fatal(err)
			}
			backValues(c.W.Data, rng, 0.1, mode.w || mode.all)
			noDX, _ := NewConv2DRect("c", sh.kh, sh.kw, sh.inC, sh.outC, sh.s, sh.padH, sh.padW, rng)
			copy(noDX.W.Data, c.W.Data)
			refDW, refDB := make([]float32, c.KH*c.KW*c.InC*c.OutC), make([]float32, sh.outC)
			s, sNoDX := NewScratch(), NewScratch()
			oh, ow := tensor.ConvOutDim(sh.h, sh.kh, sh.s, sh.padH), tensor.ConvOutDim(sh.w, sh.kw, sh.s, sh.padW)
			for call := 0; call < 3; call++ {
				x, dy := tensor.MustNew(sh.h, sh.w, sh.inC), tensor.MustNew(oh, ow, sh.outC)
				backValues(x.Data, rng, 0.5, mode.x || mode.all)
				backValues(dy.Data, rng, 0.75, mode.dy || mode.all)
				if mode.cancel {
					cancelValues(c.W.Data, dy.Data, rng)
					copy(noDX.W.Data, c.W.Data)
				}
				want := refConvBackward(c, refDW, refDB, x, dy)
				dx, err := c.Backward(x, dy, s, true)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, fmt.Sprintf("%s call %d dx", what, call), dx.Data, want)
				assertSameBits(t, fmt.Sprintf("%s call %d dW", what, call), c.dW.Data, refDW)
				assertSameBits(t, fmt.Sprintf("%s call %d dB", what, call), c.dB.Data, refDB)
				if dx, err := noDX.Backward(x, dy, sNoDX, false); err != nil || dx != nil {
					t.Fatalf("%s: no-dx call returned %v, %v", what, dx, err)
				}
				assertSameBits(t, fmt.Sprintf("%s call %d no-dx dW", what, call), noDX.dW.Data, refDW)
				assertSameBits(t, fmt.Sprintf("%s call %d no-dx dB", what, call), noDX.dB.Data, refDB)
			}
		}
	}

	for _, dims := range [][2]int{{1, 1}, {5, 3}, {13, 10}, {84, 10}, {400, 120}} {
		for _, mode := range backwardModes {
			what := fmt.Sprintf("dense %v %s", dims, mode.name)
			d, _ := NewDense("fc", dims[0], dims[1], rng)
			backValues(d.W.Data, rng, 0.1, mode.w || mode.all)
			noDX, _ := NewDense("fc", dims[0], dims[1], rng)
			copy(noDX.W.Data, d.W.Data)
			refDW, refDB := make([]float32, dims[0]*dims[1]), make([]float32, dims[1])
			s, sNoDX := NewScratch(), NewScratch()
			for call := 0; call < 3; call++ {
				x, dy := tensor.MustNew(dims[0]), tensor.MustNew(dims[1])
				backValues(x.Data, rng, 0.5, mode.x || mode.all)
				backValues(dy.Data, rng, 0.5, mode.dy || mode.all)
				if mode.cancel {
					cancelValues(d.W.Data, dy.Data, rng)
					copy(noDX.W.Data, d.W.Data)
				}
				want := refDenseBackward(d, refDW, refDB, x.Data, dy.Data)
				dx, err := d.Backward(x, dy, s, true)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, fmt.Sprintf("%s call %d dx", what, call), dx.Data, want)
				assertSameBits(t, fmt.Sprintf("%s call %d dW", what, call), d.dW.Data, refDW)
				assertSameBits(t, fmt.Sprintf("%s call %d dB", what, call), d.dB.Data, refDB)
				if dx, err := noDX.Backward(x, dy, sNoDX, false); err != nil || dx != nil {
					t.Fatalf("%s: no-dx call returned %v, %v", what, dx, err)
				}
				assertSameBits(t, fmt.Sprintf("%s call %d no-dx dW", what, call), noDX.dW.Data, refDW)
				assertSameBits(t, fmt.Sprintf("%s call %d no-dx dB", what, call), noDX.dB.Data, refDB)
			}
		}
	}

	s := NewScratch()
	for _, r := range []*ReLU{NewReLU("relu"), NewReLU6("relu6")} {
		for call := 0; call < 3; call++ {
			x, dy := tensor.MustNew(len(specialValues)+500), tensor.MustNew(len(specialValues)+500)
			copy(x.Data, specialValues)
			backValues(x.Data[len(specialValues):], rng, 0.2, true)
			for i := range x.Data {
				x.Data[i] *= 4 // straddle ReLU6's clip
			}
			backValues(dy.Data, rng, 0.3, true)
			dx, err := r.Backward(x, dy, s, true)
			if err != nil {
				t.Fatal(err)
			}
			assertBits(t, fmt.Sprintf("%s call %d dx", r.Name(), call), dx.Data, refReLUBackward(r, x.Data, dy.Data))
		}
	}

	for _, sh := range [][3]int{{28, 28, 6}, {10, 10, 16}, {7, 5, 3}, {4, 4, 1}, {3, 8, 2}} {
		for _, kind := range []poolKind{poolMax, poolAvg} {
			for size := 1; size <= 3; size++ {
				for stride := 1; stride <= 3; stride++ {
					for pad := 0; pad <= 2; pad++ {
						oh, ow := tensor.ConvOutDim(sh[0], size, stride, pad), tensor.ConvOutDim(sh[1], size, stride, pad)
						if oh <= 0 || ow <= 0 {
							continue
						}
						p, err := newPool("p", kind, size, stride, pad)
						if err != nil {
							t.Fatal(err)
						}
						x, dy := tensor.MustNew(sh[0], sh[1], sh[2]), tensor.MustNew(oh, ow, sh[2])
						backValues(x.Data, rng, 0.2, true)
						backValues(dy.Data, rng, 0.3, true)
						dx, err := p.Backward(x, dy, s, true)
						if err != nil {
							t.Fatal(err)
						}
						assertSameBits(t, fmt.Sprintf("pool kind=%d %v size=%d stride=%d pad=%d", kind, sh, size, stride, pad),
							dx.Data, refPoolBackward(p, x, dy))
					}
				}
			}
		}
	}

	f := NewFlatten("flat")
	x, dy := tensor.MustNew(5, 5, 16), tensor.MustNew(400)
	backValues(dy.Data, rng, 0.3, true)
	dx, err := f.Backward(x, dy, s, true)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(dx, x) {
		t.Fatalf("flatten dx shape %v, want %v", dx.Shape(), x.Shape())
	}
	assertBits(t, "flatten dx", dx.Data, dy.Data)

	pool, err := NewMaxPool2D("p", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Backprop{NewReLU("relu"), f, pool} {
		x := tensor.MustNew(4, 4, 2)
		y, err := l.Forward([]*tensor.Tensor{x}, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if dx, err := l.Backward(x, y, s, false); err != nil || dx != nil {
			t.Fatalf("%s: no-dx call returned %v, %v", l.Name(), dx, err)
		}
	}
}
