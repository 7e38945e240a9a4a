package nn

import (
	"fmt"
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

// BenchmarkDenseForward is a dense layer at a VGG-classifier shape and
// at LeNet-5's dense_1 shape. The LeNet input is rectified, as the
// flattened pool_2 output is, so the zero skip sees about half zeros.
func BenchmarkDenseForward(b *testing.B) {
	shapes := []struct {
		name       string
		in, out    int
		reluSparse bool
	}{
		{"vgg4096x1024", 4096, 1024, false},
		{"lenet400x120", 400, 120, true},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			d, err := NewDense("d", sh.in, sh.out, rng(3))
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.MustNew(sh.in)
			x.RandNormal(rng(4), 0, 1)
			if sh.reluSparse {
				for i, v := range x.Data {
					x.Data[i] = max(v, 0)
				}
			}
			benchLayer(b, d, x)
		})
	}
}

// BenchmarkPoolForward is LeNet-5's 2x2/2 max pooling over the two
// rectified conv outputs.
func BenchmarkPoolForward(b *testing.B) {
	for _, sh := range [][3]int{{28, 28, 6}, {10, 10, 16}} {
		b.Run(fmt.Sprintf("lenet%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			p, err := NewMaxPool2D("p", 2, 2)
			if err != nil {
				b.Fatal(err)
			}
			benchLayer(b, p, draws(16, true, sh[0], sh[1], sh[2])...)
		})
	}
}

// BenchmarkReLUForward rectifies LeNet-5's conv_1 output (28x28x6, about
// half negative).
func BenchmarkReLUForward(b *testing.B) {
	benchLayer(b, NewReLU("r"), draws(16, false, 28, 28, 6)...)
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

// benchLayer times l.Forward through one warm arena, cycling through
// the given inputs.
func benchLayer(b *testing.B, l Layer, inputs ...*tensor.Tensor) {
	s := NewScratch()
	xs := make([][]*tensor.Tensor, len(inputs))
	for i, x := range inputs {
		xs[i] = []*tensor.Tensor{x}
		if _, err := l.Forward(xs[i], s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Forward(xs[i%len(xs)], s); err != nil {
			b.Fatal(err)
		}
	}
}

// draws returns n rectified-or-raw normal draws of the given shape. The
// activation benchmarks cycle through 16 of them, as an accuracy sweep
// feeds different digits, so a branch predictor cannot learn one
// input's sign pattern.
func draws(n int, rectify bool, shape ...int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.MustNew(shape...)
		xs[i].RandNormal(rng(int64(100+i)), 0, 1)
		if rectify {
			for j, v := range xs[i].Data {
				xs[i].Data[j] = max(v, 0)
			}
		}
	}
	return xs
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

// BenchmarkConvBackward is one warm conv backward at LeNet-5's two conv
// shapes, as training runs them, and at a 3x3x16 shape with a dense
// gradient. Training asks conv_1, the first layer, for no dx; its input
// is a relu-sparse stand-in for a digit. At the LeNet shapes dy is
// routed as a 2x2 max-pool backward routes it: one non-zero pixel per
// window and channel. The arena reads a training Prep, updated every
// 16 calls as an optimizer step with batch 16 updates it.
func BenchmarkConvBackward(b *testing.B) {
	shapes := []struct {
		name                   string
		h, w, inC, out, k, pad int
		wantDX, pooled         bool
	}{
		{"lenet-conv1", 28, 28, 1, 6, 5, 2, false, true},
		{"lenet-conv2", 14, 14, 6, 16, 5, 0, true, true},
		{"3x3x16", 14, 14, 16, 16, 3, 1, true, false},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			c, err := NewConv2D("c", sh.k, sh.k, sh.inC, sh.out, 1, sh.pad, rng(7))
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.MustNew(sh.h, sh.w, sh.inC)
			x.RandNormal(rng(8), 0, 1)
			s, prep := trainingArena(c)
			y, err := c.Forward([]*tensor.Tensor{x}, s)
			if err != nil {
				b.Fatal(err)
			}
			dy := tensor.MustNew(y.Shape()...)
			dy.Fill(1)
			if sh.pooled {
				for i, v := range x.Data {
					x.Data[i] = max(v, 0)
				}
				dy.RandNormal(rng(9), 0, 1)
				ow, oc := y.Dim(1), y.Dim(2)
				for i := range dy.Data {
					oy, ox, ch := i/(ow*oc), i/oc%ow, i%oc
					if (oy%2)*2+ox%2 != ch%4 {
						dy.Data[i] = 0
					}
				}
			}
			if _, err := c.Backward(x, dy, s, sh.wantDX); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%16 == 0 {
					prep.Update()
				}
				if _, err := c.Backward(x, dy, s, sh.wantDX); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// trainingArena returns an arena reading a training Prep of l, as the
// Trainer's arenas do, and the Prep, updated.
func trainingArena(l Layer) (*Scratch, *Prep) {
	g := NewGraph()
	if err := g.Add(l); err != nil {
		panic(err)
	}
	prep := g.NewPrep()
	prep.Update()
	s := NewScratch()
	s.Use(prep)
	return s, prep
}

// BenchmarkDenseBackward is LeNet-5's dense_1 backward as training runs
// it: x is a rectified stand-in for the flattened pool_2 output, about
// half of dy is ReLU-masked zero, dx is wanted, and the arena's training
// Prep is updated every 16 calls.
func BenchmarkDenseBackward(b *testing.B) {
	b.Run("lenet400x120", func(b *testing.B) {
		d, err := NewDense("d", 400, 120, rng(3))
		if err != nil {
			b.Fatal(err)
		}
		x := draws(1, true, 400)[0]
		dy := draws(1, false, 120)[0]
		for i, v := range dy.Data {
			if i%2 == 0 && v < 0 || i%2 == 1 && v > 0 {
				dy.Data[i] = 0
			}
		}
		s, prep := trainingArena(d)
		if _, err := d.Backward(x, dy, s, true); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%16 == 0 {
				prep.Update()
			}
			if _, err := d.Backward(x, dy, s, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolBackward is LeNet-5's two 2x2/2 max poolings as training
// runs them: each iteration is a forward and a backward of one of 16
// rectified inputs through an arena reading a training Prep, because
// the forward records the argmax the backward reads. Every output gets
// a gradient, as the conv_2 and dense_1 dx sums give one.
func BenchmarkPoolBackward(b *testing.B) {
	for _, sh := range [][3]int{{28, 28, 6}, {10, 10, 16}} {
		b.Run(fmt.Sprintf("lenet%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			p, err := NewMaxPool2D("p", 2, 2)
			if err != nil {
				b.Fatal(err)
			}
			xs := draws(16, true, sh[0], sh[1], sh[2])
			dy := draws(1, false, sh[0]/2, sh[1]/2, sh[2])[0]
			s, _ := trainingArena(p)
			step := func(x *tensor.Tensor) {
				if _, err := p.Forward([]*tensor.Tensor{x}, s); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Backward(x, dy, s, true); err != nil {
					b.Fatal(err)
				}
			}
			step(xs[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(xs[i%len(xs)])
			}
		})
	}
}
