package nn

import (
	"testing"

	"repro/internal/tensor"
)

// BenchmarkConvForward is the steady-state conv layer at VGG- and
// LeNet-layer shapes: after the first pass every arena buffer is warm,
// so the loop body allocates (almost) nothing. The relu-sparse input
// zeroes every negative pixel, as a post-ReLU activation does; the deep
// shape has fewer output pixels than channels, so it keeps the
// pixel-major lowering.
func BenchmarkConvForward(b *testing.B) {
	shapes := []struct {
		name           string
		h, w, inC, out int
		reluSparse     bool
	}{
		{"vgg28x28x64", 28, 28, 64, 64, false},
		{"vgg28x28x64-relu-sparse", 28, 28, 64, 64, true},
		{"lenet14x14x6", 14, 14, 6, 16, false},
		{"deep14x14x256", 14, 14, 256, 256, false},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			c, err := NewConv2D("c", 3, 3, sh.inC, sh.out, 1, 1, rng(1))
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.MustNew(sh.h, sh.w, sh.inC)
			x.RandNormal(rng(2), 0, 1)
			if sh.reluSparse {
				for i, v := range x.Data {
					x.Data[i] = max(v, 0)
				}
			}
			benchLayer(b, c, x)
		})
	}
}

// BenchmarkDenseForward is the VGG-classifier-shaped dense layer.
func BenchmarkDenseForward(b *testing.B) {
	d, err := NewDense("d", 4096, 1024, rng(3))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(4096)
	x.RandNormal(rng(4), 0, 1)
	benchLayer(b, d, x)
}

// BenchmarkDepthwiseForward is the MobileNet depthwise stage.
func BenchmarkDepthwiseForward(b *testing.B) {
	d, err := NewDepthwiseConv2D("dw", 3, 3, 128, 1, 1, rng(5))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(28, 28, 128)
	x.RandNormal(rng(6), 0, 1)
	benchLayer(b, d, x)
}

// benchLayer times l.Forward on x through one warm arena.
func benchLayer(b *testing.B, l Layer, x *tensor.Tensor) {
	s := NewScratch()
	xs := []*tensor.Tensor{x}
	if _, err := l.Forward(xs, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Forward(xs, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphForward runs the whole LeNet-5-topology graph through
// one warm Runner — the per-sample unit of every accuracy sweep.
func BenchmarkGraphForward(b *testing.B) {
	g := lenetLikeGraph(b)
	r := g.WithScratch()
	x := tensor.MustNew(28, 28, 1)
	x.RandNormal(rng(9), 0, 1)
	if _, err := r.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvBackward(b *testing.B) {
	c, err := NewConv2D("c", 3, 3, 16, 16, 1, 1, rng(7))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(14, 14, 16)
	x.RandNormal(rng(8), 0, 1)
	y, err := c.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		b.Fatal(err)
	}
	dy := tensor.MustNew(y.Shape()...)
	dy.Fill(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Backward(x, dy); err != nil {
			b.Fatal(err)
		}
	}
}
