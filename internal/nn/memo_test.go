package nn

import (
	"math"
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
// a fresh full forward bit-for-bit, and returns the cut the pass resumed
// from.
func runMemo(t *testing.T, g *Graph, xs []*tensor.Tensor) (resume int) {
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
	resume = p.resume
	p.End(nil)
	return resume
}

// TestMemoResumes walks a search-like schedule on the LeNet-5 topology
// (cuts 0-4 before c1, c2, f1, f2, f3) and checks where each pass
// resumes.
func TestMemoResumes(t *testing.T) {
	g := lenetLikeGraph(t)
	xs := memoInputs(t, 3, 1)
	c2 := g.Layer("c2").Params()[0].T.Data
	f1 := g.Layer("f1").Params()[0].T.Data
	f2 := g.Layer("f2").Params()[0].T.Data
	committedC2, committedF1, committedF2 := slices.Clone(c2), slices.Clone(f1), slices.Clone(f2)
	var trialC2 []float32
	for i, step := range []struct {
		what string
		edit func()
		want int
	}{
		{"first pass", func() {}, -1},
		{"same parameters", func() {}, 4},
		{"trial f1", func() { f1[7] += 1 }, 2},
		{"trial c2", func() { copy(f1, committedF1); c2[3] += 1; trialC2 = slices.Clone(c2) }, 1},
		{"revert", func() { copy(c2, committedC2) }, 4},
		{"trial f3", func() { g.Layer("f3").Params()[0].T.Data[0] += 1 }, 4},
		{"trial f2", func() { f2[4] += 1 }, 3},
		// The trial c2 pass stored cuts 2-4 on its weights, so once they
		// are committed a trial of f2 resumes at f2.
		{"commit c2, trial f2", func() { copy(c2, trialC2); committedC2 = trialC2; f2[5] += 1 }, 3},
		{"trial f1", func() { copy(f2, committedF2); f1[8] += 1 }, 2},
		{"revert", func() { copy(f1, committedF1) }, 4},
		{"bias of f2", func() { g.Layer("f2").Params()[1].T.Data[2] += 1 }, 3},
		{"another input list", func() { xs = memoInputs(t, 3, 2) }, -1},
		{"same inputs", func() {}, 4},
		{"edit an input in place", func() { xs[1].Data[100] += 1 }, -1},
		{"reorder the inputs", func() { xs = []*tensor.Tensor{xs[2], xs[0], xs[1]} }, -1},
		{"commit c2 again", func() { c2[9] += 1 }, 1},
		// The cuts on the previous c2 went with the previous input order.
		{"back to the previous c2", func() { c2[9] -= 1 }, 1},
	} {
		step.edit()
		if got := runMemo(t, g, xs); got != step.want {
			t.Fatalf("step %d (%s): resumed from cut %d, want %d", i, step.what, got, step.want)
		}
	}
}

// TestMemoBitLevelVersions pins what the memo's byte compare must keep:
// a weight or an input pixel that changes only its sign of zero or its
// NaN payload is a new version, and an unchanged NaN is the same one. A
// float == compare would get both wrong (+0 == −0, NaN != NaN). Every
// pass must also equal a fresh full forward bit for bit, NaN payloads
// included.
func TestMemoBitLevelVersions(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan1, nan2 := math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002)
	for _, c := range []struct{ a, b []float32 }{
		{[]float32{1, 0}, []float32{1, negZero}},
		{[]float32{nan1}, []float32{nan2}},
		{[]float32{1, 2}, []float32{1}},
	} {
		if equalData(c.a, c.b) || equalData(c.b, c.a) {
			t.Errorf("equalData(%v, %v) = true", c.a, c.b)
		}
	}
	if !equalData([]float32{nan1, negZero}, []float32{nan1, negZero}) || !equalData(nil, []float32{}) {
		t.Error("equalData rejects equal bit patterns")
	}

	g := lenetLikeGraph(t)
	xs := memoInputs(t, 3, 4)
	for _, c := range []struct {
		what string
		at   *float32
		want int // the cut a pass resumes from after the change
	}{
		{"c2 weight", &g.Layer("c2").Params()[0].T.Data[3], 1},
		{"input pixel", &xs[1].Data[100], -1},
	} {
		for _, flip := range [][2]float32{{0, negZero}, {nan1, nan2}} {
			*c.at = flip[0]
			memoPassBits(t, g, xs)
			if got := memoPassBits(t, g, xs); got != 4 {
				t.Fatalf("%s = %#08x unchanged: resumed from cut %d, want 4", c.what, math.Float32bits(flip[0]), got)
			}
			*c.at = flip[1]
			if got := memoPassBits(t, g, xs); got != c.want {
				t.Fatalf("%s %#08x -> %#08x: resumed from cut %d, want %d", c.what,
					math.Float32bits(flip[0]), math.Float32bits(flip[1]), got, c.want)
			}
		}
	}
}

// memoPassBits is runMemo with the outputs compared by math.Float32bits
// rather than through equalData, which the memo itself uses.
func memoPassBits(t *testing.T, g *Graph, xs []*tensor.Tensor) (resume int) {
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
		for j := range want.Data {
			if math.Float32bits(y.Data[j]) != math.Float32bits(want.Data[j]) {
				t.Fatalf("input %d output %d: memoized %#08x, full forward %#08x",
					i, j, math.Float32bits(y.Data[j]), math.Float32bits(want.Data[j]))
			}
		}
	}
	resume = p.resume
	p.End(nil)
	return resume
}

// TestMemoGreedySchedule replays the schedule of planner.Greedy with
// seeded choices: each round trials every parameterized layer once, in a
// random order, scoring the trial and reverting it (and scoring some
// reverts), then commits one of the round's trials. Every pass must be
// bit-identical to a fresh full forward, and every trial pass must
// resume at the cut before the layer it trials, the first trial after a
// commit included. A bit flipped in a committed layer's weights behind
// the memo's back must keep the next pass from resuming past that layer.
func TestMemoGreedySchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := lenetLikeGraph(t)
		xs := memoInputs(t, 8, seed)
		r := rand.New(rand.NewSource(seed))
		var layers []Layer
		for _, l := range g.Layers() {
			if NumParams(l) > 0 {
				layers = append(layers, l)
			}
		}
		weights := func(l Layer) []float32 { return l.Params()[0].T.Data }
		runMemo(t, g, xs) // the search's baseline score
		last := -1        // the layer committed last round
		for round := 0; round < 12; round++ {
			order := r.Perm(len(layers))
			if last >= 0 && r.Intn(2) == 0 {
				// The hardest case: the first trial after a commit
				// trials the committed layer again, so the new prefix
				// has been live only in its own trial.
				i := slices.Index(order, last)
				order[0], order[i] = order[i], order[0]
			}
			trials := make([][]float32, len(layers))
			for _, x := range order {
				w := weights(layers[x])
				committed := slices.Clone(w)
				for i := range w {
					if r.Intn(3) == 0 {
						w[i] *= 0.5
					}
				}
				trials[x] = slices.Clone(w)
				if got := runMemo(t, g, xs); got != x {
					t.Fatalf("seed %d round %d: trial of layer %d resumed from cut %d", seed, round, x, got)
				}
				copy(w, committed)
				if r.Intn(4) == 0 {
					if got := runMemo(t, g, xs); got != len(layers)-1 {
						t.Fatalf("seed %d round %d: revert of layer %d resumed from cut %d", seed, round, x, got)
					}
				}
			}
			last = order[r.Intn(2)*r.Intn(len(layers))] // often the round's first trial
			copy(weights(layers[last]), trials[last])
		}
		for x, l := range layers[:len(layers)-1] {
			w := weights(l)
			i := r.Intn(len(w))
			w[i] = math.Float32frombits(math.Float32bits(w[i]) ^ 1<<uint(r.Intn(32)))
			if got := runMemo(t, g, xs); got > x {
				t.Fatalf("seed %d: a bit flipped in layer %d, yet the pass resumed from cut %d", seed, x, got)
			}
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
	if resume := runMemo(t, g, xs); resume != -1 {
		t.Fatalf("pass after an incomplete one resumed from cut %d", resume)
	}
}

// memoBytes is the memory g's memo retains: stored and spare frontier
// tensors, input clones, parameter versions and the Conv2D preparations.
func memoBytes(g *Graph) int {
	m := &g.memo
	n := 0
	for _, c := range m.cuts {
		for _, v := range append(slices.Clone(c.variants), c.spare...) {
			for _, front := range v.acts {
				for _, a := range front {
					if a != nil {
						n += 4 * cap(a.Data)
					}
				}
			}
		}
	}
	for _, x := range m.bits {
		n += 4 * cap(x.Data)
	}
	for j := range m.versions {
		for _, v := range append(slices.Clone(m.versions[j]), m.spare[j]...) {
			n += 4 * cap(v.data)
		}
	}
	for _, p := range m.conv {
		n += 4 * cap(p.wt)
	}
	return n
}

// memoBound is the most g's memo may retain for xs by its retention
// rule: cut j keeps capacity(j) variants of its frontier per input;
// layer j's parameters are kept in as many versions as the cuts after it
// keep variants, plus the one a pass snapshots before it stores them;
// plus one clone of every input and one W^T per convolution.
func memoBound(t *testing.T, g *Graph, xs []*tensor.Tensor) int {
	t.Helper()
	shapes, err := g.InferShapes(xs[0].Shape())
	if err != nil {
		t.Fatal(err)
	}
	size := func(name string) int {
		n := 1
		for _, d := range shapes[name] {
			n *= d
		}
		return n
	}
	floats := len(xs) * size(InputName)
	m := &g.memo
	for j, c := range m.cuts {
		for _, name := range c.front {
			floats += len(xs) * capacity(j) * size(name)
		}
		if j == len(m.cuts)-1 {
			continue
		}
		versions := 1
		for k := j + 1; k < len(m.cuts); k++ {
			versions += capacity(k)
		}
		floats += versions * NumParams(c.layer)
		if conv, ok := c.layer.(*Conv2D); ok {
			floats += conv.W.Size()
		}
	}
	if conv, ok := m.cuts[len(m.cuts)-1].layer.(*Conv2D); ok {
		floats += conv.W.Size()
	}
	return 4 * floats
}

// TestMemoRetainedBytes fills the memo of 100 LeNet-5 digits with a
// search's schedule and bounds what it retains by the retention rule.
// The frontiers hold 1176+400+120+84 floats per digit; cut j keeps j+2
// variants of each (2,492,800 B for 100 digits), the input clones take
// 313,600 B, and f1's 48,120 weights and biases may be kept in up to 12
// versions, one more than the two cuts after it keep variants.
func TestMemoRetainedBytes(t *testing.T) {
	g := lenetLikeGraph(t)
	xs := memoInputs(t, 100, 1)
	runMemo(t, g, xs)
	var layers []Layer
	for _, l := range g.Layers() {
		if NumParams(l) > 0 {
			layers = append(layers, l)
		}
	}
	for round := 0; round < 3; round++ {
		var trial []float32
		for x, l := range layers {
			w := l.Params()[0].T.Data
			committed := slices.Clone(w)
			for i := range w {
				w[i] *= 0.9
			}
			if x == round {
				trial = slices.Clone(w)
			}
			runMemo(t, g, xs)
			copy(w, committed)
		}
		copy(layers[round].Params()[0].T.Data, trial)
	}
	got, bound := memoBytes(g), memoBound(t, g, xs)
	t.Logf("memo retains %d bytes, bound %d", got, bound)
	if got > bound {
		t.Fatalf("memo retains %d bytes, want at most %d", got, bound)
	}
}

// TestMemoWarmPassAllocs checks that once a search's schedule has warmed
// the memo, a pass allocates nothing: neither a trial, which snapshots
// new weights and stores three cuts on them in evicted buffers, nor the
// revert that follows, which resumes at the last cut.
func TestMemoWarmPassAllocs(t *testing.T) {
	g := lenetLikeGraph(t)
	xs := memoInputs(t, 4, 1)
	w := g.Layer("c2").Params()[0].T.Data
	committed := slices.Clone(w)
	r := g.AcquireRunner()
	defer r.Release()
	step := 0
	schedule := func() {
		step++
		if step%2 == 1 { // a trial on weights no pass has seen
			for i := range w {
				w[i] = committed[i] * float32(step)
			}
		} else {
			copy(w, committed)
		}
		p := g.BeginMemo(xs)
		for i := range xs {
			if _, err := p.Forward(r, i); err != nil {
				t.Fatal(err)
			}
		}
		p.End(nil)
	}
	for i := 0; i < 2*capacity(4); i++ { // fill every cut
		schedule()
	}
	if a := testing.AllocsPerRun(20, schedule); a != 0 {
		t.Fatalf("warm memo pass allocates %v times", a)
	}
	if step%2 == 1 {
		schedule()
	}
	schedule()
	if got := g.memo.pass.resume; got != 1 {
		t.Fatalf("trial of c2 resumed from cut %d, want 1", got)
	}
}
