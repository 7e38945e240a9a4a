package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestBackwardMatchesReferenceEveryKernel runs the backward identity
// test under every kernel set this CPU offers: the lowered conv dW and
// the dense dW and dx sweeps go through the dispatched kernels.
func TestBackwardMatchesReferenceEveryKernel(t *testing.T) {
	forEachMatMulKernel(t, TestBackwardMatchesReference)
}

// TestPreparedBackwardMatchesReference pins Conv2D and Dense Backward
// through an arena reading a training Prep to the reference loops, in
// every operand mode: the Prep's W^T and finiteness replace the per-call
// ones, and with finite W the dx sweeps skip zero dy rows and pad their
// tails with zero coefficients. The Prep is updated after every weight
// change, as the Trainer updates it after every optimizer step.
func TestPreparedBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, sh := range convShapes {
		if sh.inC*sh.outC > 256 {
			continue
		}
		for _, mode := range backwardModes {
			what := fmt.Sprintf("conv %s %s", sh.name, mode.name)
			c, err := NewConv2DRect("c", sh.kh, sh.kw, sh.inC, sh.outC, sh.s, sh.padH, sh.padW, rng)
			if err != nil {
				t.Fatal(err)
			}
			backValues(c.W.Data, rng, 0.1, mode.w || mode.all)
			s, prep := trainingArena(c)
			refDW, refDB := make([]float32, len(c.W.Data)), make([]float32, sh.outC)
			oh, ow := tensor.ConvOutDim(sh.h, sh.kh, sh.s, sh.padH), tensor.ConvOutDim(sh.w, sh.kw, sh.s, sh.padW)
			for call := 0; call < 3; call++ {
				x, dy := tensor.MustNew(sh.h, sh.w, sh.inC), tensor.MustNew(oh, ow, sh.outC)
				backValues(x.Data, rng, 0.5, mode.x || mode.all)
				backValues(dy.Data, rng, 0.75, mode.dy || mode.all)
				if mode.cancel {
					cancelValues(c.W.Data, dy.Data, rng)
				}
				prep.Update()
				want := refConvBackward(c, refDW, refDB, x, dy)
				dx, err := c.Backward(x, dy, s, true)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, fmt.Sprintf("%s call %d dx", what, call), dx.Data, want)
				assertSameBits(t, fmt.Sprintf("%s call %d dW", what, call), c.dW.Data, refDW)
				assertSameBits(t, fmt.Sprintf("%s call %d dB", what, call), c.dB.Data, refDB)
			}
		}
	}
	for _, dims := range [][2]int{{1, 1}, {5, 3}, {13, 10}, {84, 10}, {400, 120}} {
		for _, mode := range backwardModes {
			what := fmt.Sprintf("dense %v %s", dims, mode.name)
			d, _ := NewDense("fc", dims[0], dims[1], rng)
			backValues(d.W.Data, rng, 0.1, mode.w || mode.all)
			s, prep := trainingArena(d)
			refDW, refDB := make([]float32, dims[0]*dims[1]), make([]float32, dims[1])
			for call := 0; call < 3; call++ {
				x, dy := tensor.MustNew(dims[0]), tensor.MustNew(dims[1])
				backValues(x.Data, rng, 0.5, mode.x || mode.all)
				backValues(dy.Data, rng, 0.5, mode.dy || mode.all)
				if mode.cancel {
					cancelValues(d.W.Data, dy.Data, rng)
				}
				prep.Update()
				want := refDenseBackward(d, refDW, refDB, x.Data, dy.Data)
				dx, err := d.Backward(x, dy, s, true)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, fmt.Sprintf("%s call %d dx", what, call), dx.Data, want)
				assertSameBits(t, fmt.Sprintf("%s call %d dW", what, call), d.dW.Data, refDW)
				assertSameBits(t, fmt.Sprintf("%s call %d dB", what, call), d.dB.Data, refDB)
			}
		}
	}
}

// TestRecordedPoolBackwardMatchesReference drives max pooling through an
// arena reading a training Prep, on inputs with ties, signed zeros,
// infinities and NaNs (so some windows have no winner): a backward on
// the recorded input scatters from the record, and a backward on an
// input the last recorded forward did not read (a fresh tensor, an
// earlier one, or its storage swapped) scans again. Each must match the
// reference loop, and forward outputs must match an arena that records
// nothing.
func TestRecordedPoolBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, sh := range [][3]int{{28, 28, 6}, {10, 10, 16}, {7, 5, 3}, {3, 8, 2}} {
		for _, geo := range [][3]int{{2, 2, 0}, {3, 1, 1}, {3, 2, 2}, {1, 1, 0}} {
			p, err := NewMaxPool2DPadded("p", geo[0], geo[1], geo[2])
			if err != nil {
				t.Fatal(err)
			}
			oh, ow := tensor.ConvOutDim(sh[0], geo[0], geo[1], geo[2]), tensor.ConvOutDim(sh[1], geo[0], geo[1], geo[2])
			if oh <= 0 || ow <= 0 {
				continue
			}
			what := fmt.Sprintf("pool %v size/stride/pad %v", sh, geo)
			s, prep := trainingArena(p)
			plain := NewScratch()
			draw := func() *tensor.Tensor {
				x := tensor.MustNew(sh[0], sh[1], sh[2])
				backValues(x.Data, rng, 0.2, true)
				for i := range x.Data {
					if rng.Intn(4) == 0 { // ties
						x.Data[i] = x.Data[rng.Intn(len(x.Data))]
					}
				}
				return x
			}
			dy := tensor.MustNew(oh, ow, sh[2])
			backValues(dy.Data, rng, 0.3, true)
			backward := func(label string, x *tensor.Tensor) {
				t.Helper()
				dx, err := p.Backward(x, dy, s, true)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, what+" "+label, dx.Data, refPoolBackward(p, x, dy))
			}
			x1, x2 := draw(), draw()
			for _, x := range []*tensor.Tensor{x1, x2} {
				y, err := p.Forward([]*tensor.Tensor{x}, s)
				if err != nil {
					t.Fatal(err)
				}
				want, err := p.Forward([]*tensor.Tensor{x}, plain)
				if err != nil {
					t.Fatal(err)
				}
				assertBits(t, what+" forward", y.Data, want.Data)
			}
			if s.recorded(p, x2) == nil {
				t.Fatalf("%s: the forward on x2 left no record", what)
			}
			backward("recorded", x2)
			backward("earlier input", x1)
			backward("fresh input", draw())
			swapped := x2.Clone()
			saved := x2.Data
			x2.Data = swapped.Data
			backValues(x2.Data, rng, 0.2, true)
			backward("swapped storage", x2)
			x2.Data = saved
			backward("recorded again", x2)
			prep.Update()
			if s.recorded(p, x2) != nil {
				t.Fatalf("%s: Update kept the record", what)
			}
			backward("after Update", x2)
		}
	}
}

// TestReleaseDropsPrep pins that a released Runner forgets the Prep
// installed on it: a Runner acquired afterwards derives per call, so a
// Prep left stale by a later weight change cannot reach it.
func TestReleaseDropsPrep(t *testing.T) {
	g := lenetLikeGraph(t)
	x := randInput(3, 28, 28, 1)
	prep := g.NewPrep()
	prep.Update()
	r := g.AcquireRunner()
	r.Use(prep)
	if _, err := r.Forward(x); err != nil {
		t.Fatal(err)
	}
	r.Release()
	for _, l := range g.Layers() {
		for _, p := range l.Params() {
			for i := range p.T.Data {
				p.T.Data[i] *= -0.5
			}
		}
	}
	r2 := g.AcquireRunner()
	defer r2.Release()
	if r2 != r {
		t.Fatal("the idle Runner was not reused")
	}
	got, err := r2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	assertTensorsBitIdentical(t, got, want, "forward after Release")
}
