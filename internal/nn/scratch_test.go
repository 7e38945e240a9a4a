package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// lenetLikeGraph builds the LeNet-5 topology used by the Table I
// experiments (conv/pool/dense stack) without importing internal/models.
func lenetLikeGraph(t testing.TB) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := NewGraph()
	mustLayer := func(l Layer, err error) Layer {
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	g.MustAdd(mustLayer(NewConv2D("c1", 5, 5, 1, 6, 1, 2, rng)))
	g.MustAdd(NewReLU("a1"))
	g.MustAdd(mustLayer(NewMaxPool2D("p1", 2, 2)))
	g.MustAdd(mustLayer(NewConv2D("c2", 5, 5, 6, 16, 1, 0, rng)))
	g.MustAdd(NewReLU("a2"))
	g.MustAdd(mustLayer(NewMaxPool2D("p2", 2, 2)))
	g.MustAdd(NewFlatten("fl"))
	g.MustAdd(mustLayer(NewDense("f1", 400, 120, rng)))
	g.MustAdd(NewReLU("a3"))
	g.MustAdd(mustLayer(NewDense("f2", 120, 84, rng)))
	g.MustAdd(NewReLU("a4"))
	g.MustAdd(mustLayer(NewDense("f3", 84, 10, rng)))
	g.MustAdd(NewSoftmax("sm"))
	return g
}

// mobileBlockGraph exercises every remaining layer type: a
// MobileNet-style depthwise-separable block with a residual Add, an
// Inception-style Concat tower, global average pooling and Reshape.
func mobileBlockGraph(t testing.TB) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	g := NewGraph()
	mustLayer := func(l Layer, err error) Layer {
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	g.MustAdd(mustLayer(NewConv2D("c0", 3, 3, 3, 8, 1, 1, rng)))
	g.MustAdd(mustLayer(NewBatchNorm("bn0", 8, rng)))
	g.MustAdd(NewReLU6("a0"))
	g.MustAdd(mustLayer(NewDepthwiseConv2D("dw1", 3, 3, 8, 1, 1, rng)))
	g.MustAdd(mustLayer(NewBatchNorm("bn1", 8, rng)))
	g.MustAdd(NewReLU6("a1"))
	g.MustAdd(mustLayer(NewConv2D("pw1", 1, 1, 8, 8, 1, 0, rng)))
	g.MustAdd(mustLayer(NewBatchNorm("bn2", 8, rng)))
	g.MustAdd(NewAdd("res"), "bn2", "a0")
	g.MustAdd(mustLayer(NewConv2D("t1", 1, 1, 8, 4, 1, 0, rng)), "res")
	g.MustAdd(mustLayer(NewAvgPool2DPadded("t2", 3, 1, 1)), "res")
	g.MustAdd(NewConcat("cat"), "t1", "t2")
	g.MustAdd(NewGlobalAvgPool("gap"))
	g.MustAdd(mustLayer(NewReshape("rs", 1, 1, 12)))
	g.MustAdd(mustLayer(NewConv2D("pred", 1, 1, 12, 5, 1, 0, rng)))
	g.MustAdd(NewFlatten("fl"))
	g.MustAdd(NewSoftmax("sm"))
	return g
}

func randInput(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.MustNew(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

func assertTensorsBitIdentical(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil tensor (got=%v want=%v)", label, got, want)
	}
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", label, got.Size(), want.Size())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g (%x), want %g (%x)", label, i,
				got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestRunnerMatchesForward pins the arena's stale-buffer contract:
// repeated passes through one warm Runner (dirty buffers from the
// previous input) must reproduce a fresh Runner byte-for-byte.
func TestRunnerMatchesForward(t *testing.T) {
	cases := []struct {
		name  string
		graph *Graph
		shape []int
	}{
		{"lenet", lenetLikeGraph(t), []int{28, 28, 1}},
		{"mobile-block", mobileBlockGraph(t), []int{12, 12, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.graph.WithScratch()
			for pass := 0; pass < 3; pass++ {
				x := randInput(int64(100+pass), tc.shape...)
				want, err := tc.graph.WithScratch().Forward(x)
				if err != nil {
					t.Fatalf("fresh Forward: %v", err)
				}
				got, err := r.Forward(x)
				if err != nil {
					t.Fatalf("warm Forward: %v", err)
				}
				assertTensorsBitIdentical(t, got, want, tc.name)
			}
		})
	}
}

// TestRunnerForwardAllMatches checks every intermediate activation, not
// just the output, of a warm Runner against a fresh one.
func TestRunnerForwardAllMatches(t *testing.T) {
	g := mobileBlockGraph(t)
	x := randInput(7, 12, 12, 3)
	want, err := g.WithScratch().ForwardAll(x)
	if err != nil {
		t.Fatal(err)
	}
	r := g.WithScratch()
	for pass := 0; pass < 2; pass++ {
		// Dirty every buffer with a different input first.
		if _, err := r.ForwardAll(randInput(int64(8+pass), 12, 12, 3)); err != nil {
			t.Fatal(err)
		}
		got, err := r.ForwardAll(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("ForwardAll returned %d activations, want %d", len(got), len(want))
		}
		for name, w := range want {
			assertTensorsBitIdentical(t, got[name], w, name)
		}
	}
}

// TestRunnerForwardFromMatches pins the cached-prefix path used by the
// experiment evaluator's per-layer sweeps: a warm Runner re-running a
// suffix from another Runner's prefix reproduces that Runner's output.
func TestRunnerForwardFromMatches(t *testing.T) {
	g := lenetLikeGraph(t)
	x := randInput(11, 28, 28, 1)
	acts, err := g.WithScratch().ForwardAll(x)
	if err != nil {
		t.Fatal(err)
	}
	want := acts[g.Output()].Clone()
	r := g.WithScratch()
	if _, err := r.Forward(randInput(12, 28, 28, 1)); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"c1", "c2", "f1", "f3", "sm"} {
		got, err := r.ForwardFrom(acts, from)
		if err != nil {
			t.Fatal(err)
		}
		assertTensorsBitIdentical(t, got, want, "from "+from)
		// The caller's map must not be mutated by the runner.
		if len(acts) != len(g.LayerNames())+1 {
			t.Fatalf("ForwardFrom mutated caller activation map: %d entries", len(acts))
		}
		assertTensorsBitIdentical(t, acts[g.Output()], want, "cached output after from "+from)
	}
}

// TestRunnerConcurrent runs one Runner per goroutine over a shared graph,
// borrowed from the graph's idle list for each pass and released after it;
// under -race this pins the graph-stays-read-only contract and the
// idle list's hand-over between goroutines.
func TestRunnerConcurrent(t *testing.T) {
	g := lenetLikeGraph(t)
	x := randInput(13, 28, 28, 1)
	want, err := g.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			for pass := 0; pass < 3; pass++ {
				r := g.AcquireRunner()
				got, err := r.Forward(x)
				if err != nil {
					errs <- err
					return
				}
				for j := range want.Data {
					if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
						errs <- errMismatch
						return
					}
				}
				r.Release()
			}
			errs <- nil
		}()
	}
	for i := 0; i < goroutines; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errShim("concurrent runner output mismatch")

type errShim string

func (e errShim) Error() string { return string(e) }

// TestScratchSteadyStateAllocs verifies the arena's zero-allocation
// contract for the steady state: after a warm-up pass, a whole-graph
// forward performs at most a handful of allocations (map iteration order
// noise aside, the conv/dense/pool paths must all reuse their buffers).
func TestScratchSteadyStateAllocs(t *testing.T) {
	g := lenetLikeGraph(t)
	r := g.WithScratch()
	x := randInput(17, 28, 28, 1)
	if _, err := r.Forward(x); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := r.Forward(x); err != nil {
			t.Fatal(err)
		}
	})
	// Layer count is 13; a cold Runner allocates every buffer on its
	// first pass. Steady state must be O(1): only the error-free fast
	// path's incidental allocations (interface boxing etc.) remain.
	if avg > 4 {
		t.Fatalf("steady-state Runner.Forward allocates %.1f objects/op, want <= 4", avg)
	}
}

// TestScratchBuffers pins the arena accessor contracts used by the
// layers: growth, reuse, and view caching.
func TestScratchBuffers(t *testing.T) {
	s := NewScratch()
	f := s.Floats("k", "", 8)
	if len(f) != 8 {
		t.Fatalf("Floats len %d", len(f))
	}
	f[0] = 42
	if g := s.Floats("k", "", 4); &g[0] != &f[0] {
		t.Fatal("Floats shrank to a new backing array")
	}
	a := s.Tensor("t", "", 2, 3)
	a.Data[0] = 7
	if b := s.Tensor("t", "", 2, 3); b != a {
		t.Fatal("same-shape Tensor not identical in steady state")
	}
	if b := s.Tensor("t", "", 3, 2); b == a || &b.Data[0] != &a.Data[0] {
		t.Fatal("reshaped Tensor should reuse backing array")
	}
	if c := s.Tensor("t", "", 4, 4); len(c.Data) != 16 {
		t.Fatal("grown Tensor wrong size")
	}
	data := []float32{1, 2, 3, 4}
	v1, err := s.View("v", "", data, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.View("v", "", data, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("View not cached for identical backing and shape")
	}
	if _, err := s.View("v", "", data, 3, 3); err == nil {
		t.Fatal("View accepted mismatched volume")
	}
}

// TestRunnerForwardFromOwnMap re-runs a suffix from the very map the
// Runner's own ForwardAll returned, as the ForwardFrom doc promises; a
// perturbed suffix layer must then match a full forward through a fresh
// Runner.
func TestRunnerForwardFromOwnMap(t *testing.T) {
	g := lenetLikeGraph(t)
	r := g.WithScratch()
	x := randInput(19, 28, 28, 1)
	for _, from := range []string{"p1", "c2", "f1", "sm"} {
		acts, err := r.ForwardAll(x)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := g.Layer(from).(*Dense); ok {
			d.W.Data[0] += 0.25
		}
		got, err := r.ForwardFrom(acts, from)
		if err != nil {
			t.Fatalf("from %s: %v", from, err)
		}
		want, err := g.WithScratch().Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		assertTensorsBitIdentical(t, got, want, "from "+from)
	}
}

// TestRunnerPool checks that Release hands the very Runner back to the
// next AcquireRunner, that the Runner borrowed back after a weight change
// computes what a fresh Runner computes, and that Release drops the
// activations it held.
func TestRunnerPool(t *testing.T) {
	g := lenetLikeGraph(t)
	x := randInput(23, 28, 28, 1)
	r := g.AcquireRunner()
	if _, err := r.Forward(randInput(24, 28, 28, 1)); err != nil {
		t.Fatal(err)
	}
	r.Release()
	if len(r.acts) != 0 {
		t.Fatalf("released Runner still holds %d activations", len(r.acts))
	}
	c2 := g.Layer("c2").(*Conv2D)
	for i := range c2.W.Data {
		c2.W.Data[i] *= -0.5
	}
	want, err := g.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if again := g.AcquireRunner(); again != r {
		t.Fatal("AcquireRunner built a Runner while a released one was idle")
	}
	defer r.Release()
	got, err := r.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	assertTensorsBitIdentical(t, got, want, "reused Runner")
}
