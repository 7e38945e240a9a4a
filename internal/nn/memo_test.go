package nn

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func TestFrontier(t *testing.T) {
	g := mobileBlockGraph(t)
	for from, want := range map[string][]string{
		"c0":  {InputName},
		"bn0": {"c0"},
		"dw1": {"a0"},
		"pw1": {"a0", "a1"},
		"bn2": {"a0", "pw1"},
		"res": {"a0", "bn2"},
	} {
		got, err := g.Frontier(from)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("Frontier(%q) = %v, want %v", from, got, want)
		}
	}
	if _, err := g.Frontier("nope"); err == nil {
		t.Fatal("Frontier of an unknown layer succeeded")
	}
}

// memoInputs returns n random 28×28×1 inputs for lenetLikeGraph.
func memoInputs(t testing.TB, n int, seed int64) []*tensor.Tensor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.MustNew(28, 28, 1)
		xs[i].RandUniform(rng, 0, 1)
	}
	return xs
}

// runMemo makes one memoized pass over xs, checks every output against
// a full forward bit-for-bit, and returns the cut the pass resumed from
// and the last cut it stored.
func runMemo(t *testing.T, g *Graph, xs []*tensor.Tensor) (resume, keep int) {
	t.Helper()
	p := g.BeginMemo(xs)
	r, full := g.AcquireRunner(), g.WithScratch()
	defer r.Release()
	for i, x := range xs {
		y, err := p.Forward(r, i)
		if err != nil {
			p.End(err)
			t.Fatal(err)
		}
		want, err := full.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if !equalData(y.Data, want.Data) {
			t.Fatalf("input %d: memoized output %v, full forward %v", i, y.Data, want.Data)
		}
	}
	p.End(nil)
	return p.resume, p.keep
}

// TestMemoResumes walks a search-like schedule on the LeNet-5 topology
// (cuts 0-4 before c1, c2, f1, f2, f3) and checks where each pass
// resumes and what it stores.
func TestMemoResumes(t *testing.T) {
	g := lenetLikeGraph(t)
	xs := memoInputs(t, 3, 1)
	c2 := g.Layer("c2").Params()[0].T.Data
	f1 := g.Layer("f1").Params()[0].T.Data
	f2 := g.Layer("f2").Params()[0].T.Data
	committedC2, committedF1 := slices.Clone(c2), slices.Clone(f1)
	var committedF2 []float32
	type want struct{ resume, keep int }
	for i, step := range []struct {
		what string
		edit func()
		want want
	}{
		{"first pass", func() {}, want{-1, 0}},
		{"same parameters", func() {}, want{0, 4}},
		{"trial f1", func() { f1[7] += 1 }, want{2, 2}},
		{"trial c2", func() { copy(f1, committedF1); c2[3] += 1 }, want{1, 1}},
		{"revert", func() { copy(c2, committedC2) }, want{4, 1}},
		{"trial f3", func() { g.Layer("f3").Params()[0].T.Data[0] += 1 }, want{4, 4}},
		{"commit c2", func() { c2[5] -= 1 }, want{1, 1}},
		{"re-score", func() {}, want{1, 4}},
		{"re-score", func() {}, want{4, 4}},
		{"bias of f2", func() { g.Layer("f2").Params()[1].T.Data[2] += 1 }, want{3, 3}},
		{"another input list", func() { xs = memoInputs(t, 3, 2) }, want{-1, 4}},
		{"same inputs", func() {}, want{4, 4}},
		{"edit an input in place", func() { xs[1].Data[100] += 1 }, want{-1, 4}},
		{"reorder the inputs", func() { xs = []*tensor.Tensor{xs[2], xs[0], xs[1]} }, want{-1, 4}},
		{"commit c2 again", func() { c2[9] += 1 }, want{1, 1}},
		// Storing cuts 2-3 on the new c2 drops cut 4, computed on the old.
		{"trial f2", func() { committedF2 = slices.Clone(f2); f2[4] += 1 }, want{1, 3}},
		{"revert f2", func() { copy(f2, committedF2) }, want{3, 3}},
	} {
		step.edit()
		if got, keep := runMemo(t, g, xs); (want{got, keep}) != step.want {
			t.Fatalf("step %d (%s): resumed from cut %d storing through %d, want %+v", i, step.what, got, keep, step.want)
		}
	}
}

// TestMemoFailedPassEmptiesMemo checks that a pass which skips an input
// stores nothing the next pass could resume from.
func TestMemoFailedPassEmptiesMemo(t *testing.T) {
	g := lenetLikeGraph(t)
	xs := memoInputs(t, 2, 1)
	runMemo(t, g, xs)
	runMemo(t, g, xs)
	p := g.BeginMemo(xs)
	r := g.AcquireRunner()
	if _, err := p.Forward(r, 0); err != nil {
		t.Fatal(err)
	}
	r.Release()
	p.End(nil) // input 1 never ran
	if resume, _ := runMemo(t, g, xs); resume != -1 {
		t.Fatalf("pass after an incomplete one resumed from cut %d", resume)
	}
}

// memoBytes is the memory g's memo retains: stored frontier tensors,
// input clones and parameter snapshots.
func memoBytes(g *Graph) int {
	m := &g.memo
	n := 0
	for _, cuts := range m.acts {
		for _, front := range cuts {
			for _, a := range front {
				if a != nil {
					n += 4 * cap(a.Data)
				}
			}
		}
	}
	for _, x := range m.bits {
		n += 4 * cap(x.Data)
	}
	for j := range m.base {
		n += 4 * (cap(m.base[j]) + cap(m.last[j]))
	}
	return n
}

// TestMemoRetainedBytes bounds the memo of 100 LeNet-5 digits. Its
// frontiers hold 1176+400+120+84 = 1780 floats per digit (712,000 B),
// the input clones 784 floats per digit (313,600 B), and the two
// parameter snapshots of every parameterized layer but the last 60,856
// floats each (486,848 B together): 1,512,448 B in all.
func TestMemoRetainedBytes(t *testing.T) {
	g := lenetLikeGraph(t)
	xs := memoInputs(t, 100, 1)
	for i := 0; i < 2; i++ {
		runMemo(t, g, xs)
	}
	if got, want := g.memo.stored, 5; got != want {
		t.Fatalf("%d cuts stored, want %d", got, want)
	}
	if got, bound := memoBytes(g), 1_600_000; got > bound {
		t.Fatalf("memo retains %d bytes, want at most %d", got, bound)
	}
}
