package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// convShapes covers both LeNet-5 convolutions, a strided conv,
// rectangular padding, a 1x1 conv and a deep layer with fewer output
// pixels than channels (P = 196 < OutC = 256).
var convShapes = []struct {
	name                       string
	h, w, inC, outC, kh, kw, s int
	padH, padW                 int
}{
	{"lenet-conv1", 28, 28, 1, 6, 5, 5, 1, 2, 2},
	{"lenet-conv2", 14, 14, 6, 16, 5, 5, 1, 0, 0},
	{"stride2", 15, 13, 3, 8, 3, 3, 2, 1, 1},
	{"rect1x7", 12, 12, 4, 8, 1, 7, 1, 0, 3},
	{"rect7x1", 12, 9, 4, 8, 7, 1, 1, 3, 0},
	{"1x1", 9, 9, 8, 5, 1, 1, 1, 0, 0},
	{"deep14x14x256", 14, 14, 256, 256, 3, 3, 1, 1, 1},
}

// edgeValues fills v from a normal draw, then overwrites a share of the
// elements with the operands that stress the zero-skip argument: exact
// zeros (as after a ReLU), negative zeros and denormals.
func edgeValues(v []float32, rng *rand.Rand) {
	for i := range v {
		switch r := rng.Float64(); {
		case r < 0.35:
			v[i] = 0
		case r < 0.45:
			v[i] = float32(math.Copysign(0, -1))
		case r < 0.55:
			d := math.Float32frombits(uint32(rng.Intn(1 << 23)))
			if rng.Intn(2) == 0 {
				d = -d
			}
			v[i] = d
		default:
			v[i] = float32(rng.NormFloat64())
		}
	}
}

// convPath runs one lowering of c on x through a fresh arena and
// returns a copy of the [P, OutC] result.
func convPath(t *testing.T, c *Conv2D, x *tensor.Tensor, channelMajor bool) *tensor.Tensor {
	t.Helper()
	oh := tensor.ConvOutDim(x.Dim(0), c.KH, c.Stride, c.PadH)
	ow := tensor.ConvOutDim(x.Dim(1), c.KW, c.Stride, c.PadW)
	s := NewScratch()
	y := s.Tensor(c.name, "/y", oh*ow, c.OutC)
	forward := c.forwardPixelMajor
	if channelMajor {
		forward = c.forwardChannelMajor
	}
	if err := forward(y, x, s, oh*ow, c.KH*c.KW*c.InC); err != nil {
		t.Fatal(err)
	}
	return y.Clone()
}

// forwardPathOf runs Forward through a fresh arena and reports whether
// it took the channel-major lowering, read off the arena keys it used.
func forwardPathOf(t *testing.T, c *Conv2D, x *tensor.Tensor) (y *tensor.Tensor, channelMajor bool) {
	t.Helper()
	s := NewScratch()
	y, err := c.Forward([]*tensor.Tensor{x}, s)
	if err != nil {
		t.Fatal(err)
	}
	_, cm := s.floats[convT+"/patches"]
	_, pm := s.floats[c.name+"/cols"]
	if cm == pm {
		t.Fatalf("%s: Forward used channel-major %v and pixel-major %v", c.name, cm, pm)
	}
	return y.Clone(), cm
}

// TestConv2DOrientationsBitIdentical pins the channel-major lowering to
// the pixel-major one bit-for-bit on finite operands under every matmul
// kernel, and checks that Forward picks channel-major exactly when
// P > OutC and every operand is finite.
func TestConv2DOrientationsBitIdentical(t *testing.T) {
	for i, sh := range convShapes {
		t.Run(sh.name, func(t *testing.T) {
			forEachMatMulKernel(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31 + i)))
				c, err := NewConv2DRect("c", sh.kh, sh.kw, sh.inC, sh.outC, sh.s, sh.padH, sh.padW, rng)
				if err != nil {
					t.Fatal(err)
				}
				edgeValues(c.W.Data, rng)
				edgeValues(c.B.Data, rng)
				x := tensor.MustNew(sh.h, sh.w, sh.inC)
				edgeValues(x.Data, rng)

				pixel := convPath(t, c, x, false)
				assertTensorsBitIdentical(t, convPath(t, c, x, true), pixel, sh.name)

				y, cm := forwardPathOf(t, c, x)
				np := y.Size() / sh.outC
				if cm != (np > sh.outC) {
					t.Fatalf("P=%d OutC=%d: channel-major %v", np, sh.outC, cm)
				}
				assertTensorsBitIdentical(t, y, pixel, sh.name+" Forward")
			})
		})
	}
}

// TestConv2DNonFiniteTakesPixelMajor checks that an Inf weight or a NaN
// input keeps Forward on the pixel-major lowering, and shows why: with
// an Inf weight on a padded tap the channel-major product 0·Inf would
// put a NaN where the pixel-major zero skip leaves a finite value.
func TestConv2DNonFiniteTakesPixelMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewConv2D("c", 5, 5, 1, 6, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(28, 28, 1)
	x.RandNormal(rng, 0, 1)

	c.W.Data[0] = float32(math.Inf(1)) // tap (0, 0): padding for the top rows
	y, cm := forwardPathOf(t, c, x)
	if cm {
		t.Fatal("Inf weight: Forward took the channel-major lowering")
	}
	assertTensorsBitIdentical(t, y, convPath(t, c, x, false), "Inf weight")
	if got, want := convPath(t, c, x, true).Data[0], y.Data[0]; !math.IsNaN(float64(got)) || math.IsNaN(float64(want)) {
		t.Fatalf("Inf weight: channel-major [0][0] = %v, pixel-major %v; want NaN vs a number", got, want)
	}

	c.W.Data[0] = 0.5
	x.Data[100] = float32(math.NaN())
	y, cm = forwardPathOf(t, c, x)
	if cm {
		t.Fatal("NaN input: Forward took the channel-major lowering")
	}
	assertTensorsBitIdentical(t, y, convPath(t, c, x, false), "NaN input")
}
