package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// buildTestGraph builds a small DAG with a residual connection:
// input -> fc1 -> relu -> fc2 -> add(fc1 output) -> softmax.
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	fc1, err := NewDense("fc1", 4, 4, rng(20))
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := NewDense("fc2", 4, 4, rng(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(fc1); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(NewReLU("relu")); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(fc2); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(NewAdd("add"), "fc2", "fc1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(NewSoftmax("sm")); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphForward(t *testing.T) {
	g := buildTestGraph(t)
	x := tensor.MustNew(4)
	x.RandNormal(rng(22), 0, 1)
	y, err := g.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Size() != 4 {
		t.Errorf("output size = %d", y.Size())
	}
	var sum float64
	for _, v := range y.Data {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax output sum = %v", sum)
	}
}

func TestGraphAddValidation(t *testing.T) {
	g := NewGraph()
	d, _ := NewDense("fc", 2, 2, rng(1))
	if err := g.Add(d, "nonexistent"); err == nil {
		t.Error("unknown input should error")
	}
	if err := g.Add(d); err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDense("fc", 2, 2, rng(1))
	if err := g.Add(d2); err == nil {
		t.Error("duplicate name should error")
	}
	bad, _ := NewDense(InputName, 2, 2, rng(1))
	if err := g.Add(bad); err == nil {
		t.Error("reserved name should error")
	}
	if err := g.SetOutput("nope"); err == nil {
		t.Error("unknown output should error")
	}
	if err := g.SetOutput("fc"); err != nil {
		t.Error(err)
	}
}

func TestGraphEmptyForward(t *testing.T) {
	g := NewGraph()
	if _, err := g.WithScratch().Forward(tensor.MustNew(1)); err == nil {
		t.Error("empty graph forward should error")
	}
}

// TestGraphForwardFromMatchesFull re-runs the suffix after a weight
// change from a prefix cached by another Runner, which must not be
// touched.
func TestGraphForwardFromMatchesFull(t *testing.T) {
	g := buildTestGraph(t)
	x := tensor.MustNew(4)
	x.RandNormal(rng(23), 0, 1)
	acts, err := g.WithScratch().ForwardAll(x)
	if err != nil {
		t.Fatal(err)
	}
	out := acts[g.Output()]
	full := out.Clone()
	// Perturb fc2's weights, then recompute only the suffix.
	fc2 := g.Layer("fc2").(*Dense)
	fc2.W.Data[0] += 0.5
	r := g.WithScratch()
	suffix, err := r.ForwardFrom(acts, "fc2")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := g.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Data {
		if suffix.Data[i] != direct.Data[i] {
			t.Fatalf("ForwardFrom diverges from full forward at %d", i)
		}
	}
	// And it should differ from the pre-perturbation output.
	same := true
	for i := range full.Data {
		if suffix.Data[i] != full.Data[i] {
			same = false
		}
	}
	if same {
		t.Error("perturbation had no effect; test is vacuous")
	}
	// acts must not be mutated by ForwardFrom.
	if acts[g.Output()] != out {
		t.Error("ForwardFrom mutated the cached activations")
	}
	for i := range full.Data {
		if out.Data[i] != full.Data[i] {
			t.Fatal("ForwardFrom overwrote the cached output")
		}
	}
	if _, err := r.ForwardFrom(acts, "missing"); err == nil {
		t.Error("unknown start layer should error")
	}
}

func TestGraphInferShapes(t *testing.T) {
	g := buildTestGraph(t)
	shapes, err := g.InferShapes([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fc1", "relu", "fc2", "add", "sm"} {
		s, ok := shapes[name]
		if !ok || len(s) != 1 || s[0] != 4 {
			t.Errorf("shape[%s] = %v", name, s)
		}
	}
	if _, err := g.InferShapes([]int{5}); err == nil {
		t.Error("wrong input shape should error")
	}
}

func TestGraphLayerCosts(t *testing.T) {
	g := buildTestGraph(t)
	costs, err := g.LayerCosts([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if costs["fc1"] != 16 || costs["fc2"] != 16 {
		t.Errorf("dense costs = %v", costs)
	}
	if costs["relu"] != 0 || costs["add"] != 0 {
		t.Errorf("free layer costs = %v", costs)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := buildTestGraph(t)
	if g.Output() != "sm" {
		t.Errorf("output = %q", g.Output())
	}
	names := g.LayerNames()
	if len(names) != 5 || names[0] != "fc1" {
		t.Errorf("names = %v", names)
	}
	if g.Layer("fc1") == nil || g.Layer("missing") != nil {
		t.Error("Layer lookup broken")
	}
	if len(g.Layers()) != 5 {
		t.Error("Layers() wrong length")
	}
	in := g.Inputs("add")
	if len(in) != 2 || in[0] != "fc2" || in[1] != "fc1" {
		t.Errorf("Inputs(add) = %v", in)
	}
	if g.Inputs("missing") != nil {
		t.Error("Inputs of missing layer should be nil")
	}
	// fc1: 4*4+4 = 20, fc2: 20 -> total 40.
	if got := g.NumParams(); got != 40 {
		t.Errorf("NumParams = %d, want 40", got)
	}
}

func TestSequential(t *testing.T) {
	d1, _ := NewDense("a", 2, 3, rng(1))
	d2, _ := NewDense("b", 3, 2, rng(2))
	g, err := Sequential(d1, NewReLU("r"), d2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(2)
	x.Fill(1)
	y, err := g.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Size() != 2 {
		t.Errorf("sequential output = %v", y.Shape())
	}
	dup, _ := NewDense("a", 2, 2, rng(3))
	if _, err := Sequential(d1, dup); err == nil {
		t.Error("duplicate names should error")
	}
}

func TestGraphMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAdd with bad input should panic")
		}
	}()
	g := NewGraph()
	d, _ := NewDense("fc", 2, 2, rng(1))
	g.MustAdd(d, "ghost")
}

// Test-only graph builders and accessors.

// Sequential builds a linear graph from the given layers.
func Sequential(layers ...Layer) (*Graph, error) {
	g := NewGraph()
	for _, l := range layers {
		if err := g.Add(l); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustAdd is Add but panics on error.
func (g *Graph) MustAdd(l Layer, inputs ...string) {
	if err := g.Add(l, inputs...); err != nil {
		panic(err)
	}
}

// SetOutput overrides the output node.
func (g *Graph) SetOutput(name string) error {
	if _, ok := g.nodes[name]; !ok {
		return fmt.Errorf("nn: unknown output node %q", name)
	}
	g.output = name
	return nil
}

// Output returns the output node name.
func (g *Graph) Output() string { return g.output }
