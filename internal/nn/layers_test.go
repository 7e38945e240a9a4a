package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDenseForwardKnown(t *testing.T) {
	d, err := NewDense("fc", 2, 3, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	copy(d.W.Data, []float32{1, 2, 3, 4, 5, 6}) // rows = inputs
	copy(d.B.Data, []float32{0.5, 0, -0.5})
	x, _ := tensor.FromSlice([]float32{1, 2}, 2)
	y, err := d.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1*1 + 2*4 + 0.5, 1*2 + 2*5, 1*3 + 2*6 - 0.5}
	for i, v := range want {
		if math.Abs(float64(y.Data[i]-v)) > 1e-6 {
			t.Errorf("y[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestDenseValidation(t *testing.T) {
	if _, err := NewDense("fc", 0, 3, rng(1)); err == nil {
		t.Error("zero in dim should error")
	}
	d, _ := NewDense("fc", 4, 2, rng(1))
	if _, err := d.Forward([]*tensor.Tensor{tensor.MustNew(3)}, NewScratch()); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := d.Forward(nil, NewScratch()); err == nil {
		t.Error("no inputs should error")
	}
	if _, err := d.OutShape([][]int{{2, 2}}); err != nil {
		t.Error("volume-matching rank-2 input should be accepted (implicit flatten)")
	}
	if _, err := d.OutShape([][]int{{5}}); err == nil {
		t.Error("wrong volume should error")
	}
	if c, _ := d.Cost([][]int{{4}}); c != 8 {
		t.Errorf("Cost = %d, want 8", c)
	}
	if d.Kind() != "FC" || d.Name() != "fc" {
		t.Error("identity accessors wrong")
	}
}

func TestDenseBackwardNumerical(t *testing.T) {
	d, _ := NewDense("fc", 5, 3, rng(2))
	x := tensor.MustNew(5)
	x.RandNormal(rng(3), 0, 1)
	checkGradients(t, d, x)
}

func TestReLU(t *testing.T) {
	r := NewReLU("relu")
	x, _ := tensor.FromSlice([]float32{-1, 0, 2}, 3)
	y, err := r.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Errorf("ReLU = %v", y.Data)
	}
	r6 := NewReLU6("relu6")
	x6, _ := tensor.FromSlice([]float32{-1, 3, 9}, 3)
	y6, _ := r6.Forward([]*tensor.Tensor{x6}, NewScratch())
	if y6.Data[0] != 0 || y6.Data[1] != 3 || y6.Data[2] != 6 {
		t.Errorf("ReLU6 = %v", y6.Data)
	}
	// Backward masks out clipped regions.
	dy, _ := tensor.FromSlice([]float32{1, 1, 1}, 3)
	dx, err := r6.Backward(x6, dy, NewScratch(), true)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Data[0] != 0 || dx.Data[1] != 1 || dx.Data[2] != 0 {
		t.Errorf("ReLU6 backward = %v", dx.Data)
	}
	if len(r.Params()) != 0 {
		t.Error("ReLU should have no params")
	}
	if c, _ := r.Cost(nil); c != 0 {
		t.Error("ReLU cost should be 0")
	}
}

func TestSoftmax(t *testing.T) {
	s := NewSoftmax("sm")
	x, _ := tensor.FromSlice([]float32{1, 2, 3}, 3)
	y, err := s.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range y.Data {
		if v <= 0 || v >= 1 {
			t.Errorf("softmax value out of (0,1): %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(y.Data[2] > y.Data[1] && y.Data[1] > y.Data[0]) {
		t.Error("softmax should preserve order")
	}
	// Large inputs must not overflow (stability).
	big, _ := tensor.FromSlice([]float32{1000, 1001}, 2)
	yb, err := s.Forward([]*tensor.Tensor{big}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if !yb.AllFinite() {
		t.Error("softmax overflowed on large inputs")
	}
}

func TestFlatten(t *testing.T) {
	f := NewFlatten("flat")
	x := tensor.MustNew(2, 3, 4)
	y, err := f.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if y.Rank() != 1 || y.Size() != 24 {
		t.Errorf("flatten out = %v", y.Shape())
	}
	out, err := f.OutShape([][]int{{2, 3, 4}})
	if err != nil || out[0] != 24 {
		t.Errorf("OutShape = %v, %v", out, err)
	}
	dy := tensor.MustNew(24)
	dx, err := f.Backward(x, dy, NewScratch(), true)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Rank() != 3 {
		t.Errorf("flatten backward rank = %d", dx.Rank())
	}
}

// naiveConv is an independent direct convolution used as the reference for
// the im2col-based Conv2D.
func naiveConv(x *tensor.Tensor, w, b []float32, kh, kw, inC, outC, stride, pad int) *tensor.Tensor {
	h, wd := x.Dim(0), x.Dim(1)
	oh := tensor.ConvOutDim(h, kh, stride, pad)
	ow := tensor.ConvOutDim(wd, kw, stride, pad)
	out := tensor.MustNew(oh, ow, outC)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for oc := 0; oc < outC; oc++ {
				acc := float64(b[oc])
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy < 0 || iy >= h || ix < 0 || ix >= wd {
							continue
						}
						for ic := 0; ic < inC; ic++ {
							wv := w[((ky*kw+kx)*inC+ic)*outC+oc]
							acc += float64(x.At(iy, ix, ic)) * float64(wv)
						}
					}
				}
				out.Set(float32(acc), oy, ox, oc)
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) { forEachMatMulKernel(t, checkConv2DMatchesNaive) }

func checkConv2DMatchesNaive(t *testing.T) {
	for _, cfg := range []struct{ h, w, kh, kw, inC, outC, stride, pad int }{
		{6, 6, 3, 3, 2, 4, 1, 0},
		{6, 6, 3, 3, 2, 4, 1, 1},
		{8, 8, 5, 5, 1, 3, 2, 2},
		{5, 7, 1, 1, 3, 2, 1, 0},
		{7, 7, 3, 3, 4, 4, 2, 1},
	} {
		c, err := NewConv2D("c", cfg.kh, cfg.kw, cfg.inC, cfg.outC, cfg.stride, cfg.pad, rng(7))
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.MustNew(cfg.h, cfg.w, cfg.inC)
		x.RandNormal(rng(8), 0, 1)
		got, err := c.Forward([]*tensor.Tensor{x}, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		want := naiveConv(x, c.W.Data, c.B.Data, cfg.kh, cfg.kw, cfg.inC, cfg.outC, cfg.stride, cfg.pad)
		if !tensor.SameShape(got, want) {
			t.Fatalf("cfg %+v: shape %v vs %v", cfg, got.Shape(), want.Shape())
		}
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-3 {
				t.Fatalf("cfg %+v: elem %d: %v vs %v", cfg, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestConv2DValidation(t *testing.T) {
	if _, err := NewConv2D("c", 3, 3, 0, 4, 1, 0, rng(1)); err == nil {
		t.Error("zero channels should error")
	}
	c, _ := NewConv2D("c", 3, 3, 2, 4, 1, 0, rng(1))
	if _, err := c.Forward([]*tensor.Tensor{tensor.MustNew(6, 6, 3)}, NewScratch()); err == nil {
		t.Error("channel mismatch should error")
	}
	if _, err := c.OutShape([][]int{{2, 2, 2}}); err == nil {
		t.Error("kernel larger than input should error")
	}
	cost, err := c.Cost([][]int{{6, 6, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 4*4*4*3*3*2 {
		t.Errorf("Cost = %d", cost)
	}
}

func TestConv2DBackwardNumerical(t *testing.T) {
	c, _ := NewConv2D("c", 3, 3, 2, 3, 1, 1, rng(9))
	x := tensor.MustNew(5, 5, 2)
	x.RandNormal(rng(10), 0, 1)
	checkGradients(t, c, x)
}

func TestDepthwiseConvKnown(t *testing.T) {
	d, err := NewDepthwiseConv2D("dw", 3, 3, 2, 1, 1, rng(11))
	if err != nil {
		t.Fatal(err)
	}
	// Identity kernel per channel: only center tap = 1.
	d.W.Zero()
	d.W.Set(1, 1, 1, 0)
	d.W.Set(1, 1, 1, 1)
	d.B.Zero()
	x := tensor.MustNew(4, 4, 2)
	x.RandNormal(rng(12), 0, 1)
	y, err := d.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if math.Abs(float64(y.Data[i]-x.Data[i])) > 1e-6 {
			t.Fatalf("identity depthwise failed at %d", i)
		}
	}
	cost, err := d.Cost([][]int{{4, 4, 2}})
	if err != nil || cost != 4*4*2*9 {
		t.Errorf("Cost = %d, err %v", cost, err)
	}
	if _, err := d.OutShape([][]int{{4, 4, 3}}); err == nil {
		t.Error("channel mismatch should error")
	}
}

func TestMaxPool(t *testing.T) {
	p, err := NewMaxPool2D("mp", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 4, 4, 1)
	y, err := p.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("maxpool[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestAvgPool(t *testing.T) {
	p, _ := NewAvgPool2D("ap", 2, 2)
	x, _ := tensor.FromSlice([]float32{1, 3, 5, 7}, 2, 2, 1)
	y, err := p.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 4 {
		t.Errorf("avgpool = %v, want 4", y.Data[0])
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewMaxPool2D("p", 0, 1); err == nil {
		t.Error("zero size should error")
	}
	p, _ := NewMaxPool2D("p", 2, 2)
	if _, err := p.OutShape([][]int{{4, 4}}); err == nil {
		t.Error("rank-2 input should error")
	}
	if _, err := p.OutShape([][]int{{1, 1, 3}}); err == nil {
		t.Error("window larger than input should error")
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	p, _ := NewMaxPool2D("p", 2, 2)
	x, _ := tensor.FromSlice([]float32{1, 9, 3, 4}, 2, 2, 1)
	dy, _ := tensor.FromSlice([]float32{5}, 1, 1, 1)
	dx, err := p.Backward(x, dy, NewScratch(), true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 5, 0, 0}
	for i, v := range want {
		if dx.Data[i] != v {
			t.Errorf("dx[%d] = %v, want %v", i, dx.Data[i], v)
		}
	}
}

func TestAvgPoolBackwardSpreads(t *testing.T) {
	p, _ := NewAvgPool2D("p", 2, 2)
	x := tensor.MustNew(2, 2, 1)
	dy, _ := tensor.FromSlice([]float32{4}, 1, 1, 1)
	dx, err := p.Backward(x, dy, NewScratch(), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dx.Data {
		if dx.Data[i] != 1 {
			t.Errorf("dx[%d] = %v, want 1", i, dx.Data[i])
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool("gap")
	x, _ := tensor.FromSlice([]float32{1, 10, 3, 20, 5, 30, 7, 40}, 2, 2, 2)
	y, err := g.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 4 || y.Data[1] != 25 {
		t.Errorf("gap = %v, want [4 25]", y.Data)
	}
	if _, err := g.Forward([]*tensor.Tensor{tensor.MustNew(4)}, NewScratch()); err == nil {
		t.Error("rank-1 input should error")
	}
}

func TestBatchNorm(t *testing.T) {
	b, err := NewBatchNorm("bn", 2, rng(13))
	if err != nil {
		t.Fatal(err)
	}
	// Force known statistics: y = 2*(x-1)/sqrt(4+eps) + 3.
	copy(b.Gamma.Data, []float32{2, 1})
	copy(b.Beta.Data, []float32{3, 0})
	copy(b.Mean.Data, []float32{1, 0})
	copy(b.Var.Data, []float32{4, 1})
	b.Eps = 0
	x, _ := tensor.FromSlice([]float32{5, 7}, 1, 1, 2)
	y, err := b.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(y.Data[0]-7)) > 1e-5 { // 2*(5-1)/2+3 = 7
		t.Errorf("bn[0] = %v, want 7", y.Data[0])
	}
	if math.Abs(float64(y.Data[1]-7)) > 1e-5 { // 1*(7-0)/1+0 = 7
		t.Errorf("bn[1] = %v, want 7", y.Data[1])
	}
	if len(b.Params()) != 4 || NumParams(b) != 8 {
		t.Errorf("bn params = %d tensors, %d values", len(b.Params()), NumParams(b))
	}
	if _, err := b.OutShape([][]int{{2, 2, 3}}); err == nil {
		t.Error("channel mismatch should error")
	}
	if _, err := NewBatchNorm("bn", 0, rng(1)); err == nil {
		t.Error("zero channels should error")
	}
}

func TestAdd(t *testing.T) {
	a := NewAdd("add")
	x, _ := tensor.FromSlice([]float32{1, 2}, 2)
	y, _ := tensor.FromSlice([]float32{10, 20}, 2)
	z, err := a.Forward([]*tensor.Tensor{x, y}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if z.Data[0] != 11 || z.Data[1] != 22 {
		t.Errorf("add = %v", z.Data)
	}
	if _, err := a.Forward([]*tensor.Tensor{x}, NewScratch()); err == nil {
		t.Error("single input should error")
	}
	if _, err := a.Forward([]*tensor.Tensor{x, tensor.MustNew(3)}, NewScratch()); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := a.OutShape([][]int{{2}, {3}}); err == nil {
		t.Error("OutShape mismatch should error")
	}
	if s, err := a.OutShape([][]int{{2}, {2}}); err != nil || s[0] != 2 {
		t.Errorf("OutShape = %v, %v", s, err)
	}
}

func TestConcat(t *testing.T) {
	c := NewConcat("cat")
	x := tensor.MustNew(2, 2, 1)
	x.Fill(1)
	y := tensor.MustNew(2, 2, 2)
	y.Fill(2)
	z, err := c.Forward([]*tensor.Tensor{x, y}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if z.Dim(2) != 3 {
		t.Fatalf("concat channels = %d", z.Dim(2))
	}
	// Every pixel should be [1, 2, 2].
	for p := 0; p < 4; p++ {
		if z.Data[p*3] != 1 || z.Data[p*3+1] != 2 || z.Data[p*3+2] != 2 {
			t.Fatalf("pixel %d = %v", p, z.Data[p*3:p*3+3])
		}
	}
	if _, err := c.Forward([]*tensor.Tensor{x, tensor.MustNew(3, 3, 1)}, NewScratch()); err == nil {
		t.Error("spatial mismatch should error")
	}
	if _, err := c.OutShape([][]int{{2, 2, 1}}); err == nil {
		t.Error("single input should error")
	}
}

func TestWeightStreamRoundTrip(t *testing.T) {
	d, _ := NewDense("fc", 3, 2, rng(14))
	w := WeightStream(d)
	if len(w) != 8 { // 6 weights + 2 bias
		t.Fatalf("stream length = %d", len(w))
	}
	mod := make([]float64, len(w))
	for i := range mod {
		mod[i] = float64(i)
	}
	if err := SetWeightStream(d, mod); err != nil {
		t.Fatal(err)
	}
	got := WeightStream(d)
	for i := range got {
		if got[i] != float64(i) {
			t.Errorf("stream[%d] = %v", i, got[i])
		}
	}
	if err := SetWeightStream(d, mod[:3]); err == nil {
		t.Error("short stream should error")
	}
}

// checkGradients verifies Backward against central finite differences for
// both input and parameter gradients, using a scalar loss L = sum(y).
func checkGradients(t *testing.T, l Backprop, x *tensor.Tensor) {
	t.Helper()
	forwardSum := func() float64 {
		y, err := l.Forward([]*tensor.Tensor{x}, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range y.Data {
			s += float64(v)
		}
		return s
	}
	y, err := l.Forward([]*tensor.Tensor{x}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.MustNew(y.Shape()...)
	dy.Fill(1)
	l.ZeroGrads()
	dx, err := l.Backward(x, dy, NewScratch(), true)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-2
	const tol = 2e-2
	// Input gradient.
	for i := 0; i < x.Size(); i += 1 + x.Size()/16 {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := forwardSum()
		x.Data[i] = orig - eps
		down := forwardSum()
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(dx.Data[i])) > tol*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: numerical %v vs analytic %v", i, num, dx.Data[i])
		}
	}
	// Parameter gradients.
	params, grads := l.Params(), l.Grads()
	for pi := range params {
		p, g := params[pi].T, grads[pi].T
		for i := 0; i < p.Size(); i += 1 + p.Size()/16 {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			up := forwardSum()
			p.Data[i] = orig - eps
			down := forwardSum()
			p.Data[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-float64(g.Data[i])) > tol*(1+math.Abs(num)) {
				t.Errorf("param %q grad[%d]: numerical %v vs analytic %v", params[pi].Name, i, num, g.Data[i])
			}
		}
	}
}

// forEachMatMulKernel runs fn as one subtest per matmul kernel this CPU
// offers, then restores the startup kernel, so the portable kernel's
// bit-identity is checked on every run, not only where it is the
// automatic choice.
func forEachMatMulKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	startup := tensor.MatMulKernel()
	defer func() {
		if err := tensor.SetMatMulKernel(startup); err != nil {
			t.Fatal(err)
		}
	}()
	for _, k := range tensor.MatMulKernels() {
		t.Run(k, func(t *testing.T) {
			if err := tensor.SetMatMulKernel(k); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}
