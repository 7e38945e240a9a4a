package train

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// TestTopKHitMatchesTopK pins the allocation-free hit test to
// stats.TopK's stable, lower-index-first rule over random logits drawn
// from a few values, so ties are the common case, with signed zeros,
// infinities, NaNs and labels out of range mixed in.
func TestTopKHitMatchesTopK(t *testing.T) {
	values := []float32{-1, 0, float32(math.Copysign(0, -1)), 0.5, 1, 2,
		float32(math.Inf(1)), float32(math.Inf(-1))}
	r := rng(31)
	for trial := 0; trial < 20000; trial++ {
		y := tensor.MustNew(1 + r.Intn(12))
		for i := range y.Data {
			y.Data[i] = values[r.Intn(len(values))]
		}
		if trial%10 == 0 {
			y.Data[r.Intn(len(y.Data))] = float32(math.NaN())
		}
		label := r.Intn(len(y.Data)+2) - 1
		for _, k := range []int{1, 2, 5, 10} {
			want := slices.Contains(stats.TopK(y.Float64s(), k), label)
			if got := topKHit(y, label, k); got != want {
				t.Fatalf("logits %v label %d k %d: topKHit %v, TopK %v", y.Data, label, k, got, want)
			}
		}
	}
}

// memoCase is a network of the differential test and its sample source.
type memoCase struct {
	name    string
	g       *nn.Graph
	samples func(n int, seed int64) []dataset.Sample
}

// memoGraphs are the differential test's networks: LeNet-5, and a small
// graph whose BatchNorm, skip Add and Concat (which also reads the
// input) put several tensors on one cut frontier.
func memoGraphs(t testing.TB) []memoCase {
	t.Helper()
	m, err := models.LeNet5(7)
	if err != nil {
		t.Fatal(err)
	}
	digits := func(n int, seed int64) []dataset.Sample {
		s, err := dataset.Digits(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []memoCase{
		{"LeNet-5", m.Graph, digits},
		{"skip", skipGraph(t), func(n int, seed int64) []dataset.Sample {
			imgs, err := dataset.SyntheticImages(n, 6, 6, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			r := rng(seed)
			out := make([]dataset.Sample, n)
			for i, x := range imgs {
				out[i] = dataset.Sample{Image: x, Label: r.Intn(dataset.NumClasses)}
			}
			return out
		}},
	}
}

// skipGraph is input → c1 → r1 → c2 → bn2 → add(bn2, r1) →
// cat(add, c1, input) → c3 → flatten → fc → softmax. The cut before bn2
// holds c1, r1 and c2; the one before c3 holds only cat, and every cut
// past c2 reads the input through cat.
func skipGraph(t testing.TB) *nn.Graph {
	t.Helper()
	r := rng(5)
	must := func(l nn.Layer, err error) nn.Layer {
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	g := nn.NewGraph()
	mustAdd(t, g, must(nn.NewConv2D("c1", 3, 3, 2, 4, 1, 1, r)))
	mustAdd(t, g, nn.NewReLU("r1"))
	mustAdd(t, g, must(nn.NewConv2D("c2", 3, 3, 4, 4, 1, 1, r)))
	mustAdd(t, g, must(nn.NewBatchNorm("bn2", 4, r)))
	mustAdd(t, g, nn.NewAdd("add"), "bn2", "r1")
	mustAdd(t, g, nn.NewConcat("cat"), "add", "c1", nn.InputName)
	mustAdd(t, g, must(nn.NewConv2D("c3", 1, 1, 10, 4, 1, 0, r)))
	mustAdd(t, g, nn.NewFlatten("flatten"))
	mustAdd(t, g, must(nn.NewDense("fc", 6*6*4, dataset.NumClasses, r)))
	mustAdd(t, g, nn.NewSoftmax("softmax"))
	return g
}

// paramLayers lists g's layers with parameters, in execution order.
func paramLayers(g *nn.Graph) []nn.Layer {
	var out []nn.Layer
	for _, l := range g.Layers() {
		if nn.NumParams(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// referenceOutputs runs every sample from the input through a fresh
// Runner, cloning each output.
func referenceOutputs(t *testing.T, g *nn.Graph, samples []dataset.Sample) []*tensor.Tensor {
	t.Helper()
	r := g.WithScratch()
	out := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		y, err := r.Forward(s.Image)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = y.Clone()
	}
	return out
}

// TestMemoMatchesFullForward drives seeded random edit schedules — a
// search's trial-and-revert and commit on random layers, multi-layer and
// bias-only edits, in-place input edits, another sample slice, the same
// samples in another order — at 1, 2 and 4 workers, and compares every
// memoized score and every memoized logit bit-for-bit with a full
// forward of each sample.
func TestMemoMatchesFullForward(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 25
	}
	for _, tc := range memoGraphs(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				runMemoSchedule(t, tc.g, tc.samples(16, seed), tc.samples(16, seed+100), seed, steps)
			}
		})
	}
}

func runMemoSchedule(t *testing.T, g *nn.Graph, samples, other []dataset.Sample, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	layers := paramLayers(g)
	perturb := func(p nn.Param) {
		for i := range p.T.Data {
			if r.Intn(3) != 0 {
				continue
			}
			if p.Name == "moving_variance" { // keep it positive
				p.T.Data[i] *= float32(math.Exp(r.NormFloat64() * 0.3))
			} else {
				p.T.Data[i] += float32(r.NormFloat64() * 0.3)
			}
		}
	}
	perturbLayer := func(l nn.Layer) {
		for _, p := range l.Params() {
			perturb(p)
		}
	}
	saveLayer := func(l nn.Layer) [][]float32 {
		var out [][]float32
		for _, p := range l.Params() {
			out = append(out, slices.Clone(p.T.Data))
		}
		return out
	}
	restoreLayer := func(l nn.Layer, saved [][]float32) {
		for i, p := range l.Params() {
			copy(p.T.Data, saved[i])
		}
	}
	check := func(step int, op string) {
		t.Helper()
		workers := []int{1, 2, 4}[r.Intn(3)]
		want := referenceOutputs(t, g, samples)
		if r.Intn(2) == 0 {
			k := 1 + r.Intn(3)
			got, err := TopKAccuracyWorkers(g, samples, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for i, y := range want {
				if slices.Contains(stats.TopK(y.Float64s(), k), samples[i].Label) {
					hits++
				}
			}
			if ref := float64(hits) / float64(len(samples)); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("seed %d step %d (%s, workers %d): top-%d score %v, full forward %v", seed, step, op, workers, k, got, ref)
			}
			return
		}
		got := make([]*tensor.Tensor, len(samples))
		err := forEachSample(g, samples, workers, func(i int, y *tensor.Tensor) { got[i] = y.Clone() })
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j, v := range want[i].Data {
				if math.Float32bits(got[i].Data[j]) != math.Float32bits(v) {
					t.Fatalf("seed %d step %d (%s, workers %d): sample %d logit %d is %v, full forward %v",
						seed, step, op, workers, i, j, got[i].Data[j], v)
				}
			}
		}
	}

	check(-1, "initial")
	for step := 0; step < steps; step++ {
		l := layers[r.Intn(len(layers))]
		switch r.Intn(8) {
		case 0, 1: // a search round: one trial per layer, each scored once and reverted
			first := r.Intn(len(layers))
			for k := range layers {
				l := layers[(first+k)%len(layers)]
				saved := saveLayer(l)
				perturbLayer(l)
				check(step, "trial "+l.Name())
				restoreLayer(l, saved)
				if r.Intn(4) == 0 { // planner.Greedy scores the next trial instead
					check(step, "revert "+l.Name())
				}
			}
		case 2:
			perturbLayer(l)
			check(step, "commit "+l.Name())
		case 3:
			for n := 2 + r.Intn(2); n > 0; n-- {
				perturbLayer(layers[r.Intn(len(layers))])
			}
			check(step, "multi-layer edit")
		case 4:
			perturb(l.Params()[1]) // the bias, or a BatchNorm's beta
			check(step, "bias-only edit "+l.Name())
		case 5:
			x := samples[r.Intn(len(samples))].Image
			x.Data[r.Intn(len(x.Data))] += 0.5
			check(step, "in-place input edit")
		case 6:
			samples, other = other, samples
			check(step, "swapped sample slice")
		case 7:
			samples = slices.Clone(samples)
			r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
			check(step, "reordered samples")
		}
	}
}

// BenchmarkAccuracyTrial measures a search trial on each LeNet-5 layer:
// iterations alternate scoring 100 digits with the layer's weights
// scaled by a factor no earlier iteration used and with them reverted,
// so ns/op is the mean of one trial call, which re-runs the network from
// that layer, and one revert call, which the memo resumes at the last
// layer.
func BenchmarkAccuracyTrial(b *testing.B) {
	m, err := models.LeNet5(2020)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := dataset.Digits(100, 2020)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range paramLayers(m.Graph) {
		b.Run(l.Name(), func(b *testing.B) {
			w := l.Params()[0].T
			original := slices.Clone(w.Data)
			defer copy(w.Data, original)
			for i := 0; i < 2; i++ { // warm the memo on the committed weights
				if _, err := Accuracy(m.Graph, samples); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(w.Data, original)
				if i%2 == 0 {
					scale := 1 - float32(i+1)/float32(2*b.N+2)
					for j := range w.Data {
						w.Data[j] *= scale
					}
				}
				if _, err := Accuracy(m.Graph, samples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
