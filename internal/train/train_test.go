package train

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func tinyMLP(t *testing.T) *nn.Graph {
	t.Helper()
	fc1, err := nn.NewDense("fc1", dataset.DigitSize*dataset.DigitSize, 32, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := nn.NewDense("fc2", 32, dataset.NumClasses, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sequential(
		nn.NewFlatten("flatten"),
		fc1,
		nn.NewReLU("relu1"),
		fc2,
		nn.NewSoftmax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cachedActs returns each probe's ForwardAll activations, cloned out of
// the Runner's buffers so they outlive the next forward.
func cachedActs(t *testing.T, g *nn.Graph, probes []*tensor.Tensor) []map[string]*tensor.Tensor {
	t.Helper()
	r := g.WithScratch()
	out := make([]map[string]*tensor.Tensor, len(probes))
	for i, x := range probes {
		all, err := r.ForwardAll(x)
		if err != nil {
			t.Fatal(err)
		}
		acts := make(map[string]*tensor.Tensor, len(all))
		for name, a := range all {
			acts[name] = a.Clone()
		}
		out[i] = acts
	}
	return out
}

func TestNewSGDValidation(t *testing.T) {
	if _, err := NewSGD(0, 0); err == nil {
		t.Error("zero lr should error")
	}
	if _, err := NewSGD(0.1, 1); err == nil {
		t.Error("momentum 1 should error")
	}
	if _, err := NewSGD(0.1, -0.1); err == nil {
		t.Error("negative momentum should error")
	}
	if _, err := NewSGD(0.1, 0.9); err != nil {
		t.Error("valid SGD rejected")
	}
}

func TestSGDStepMovesParams(t *testing.T) {
	opt, _ := NewSGD(0.5, 0)
	p := tensor.MustNew(2)
	p.Fill(1)
	g := tensor.MustNew(2)
	g.Fill(2)
	err := opt.Step([]nn.Param{{Name: "w", T: p}}, []nn.Param{{Name: "w", T: g}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Data[0] != 0 { // 1 - 0.5*2
		t.Errorf("param after step = %v, want 0", p.Data[0])
	}
	if err := opt.Step([]nn.Param{{T: p}}, nil, 1); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	opt, _ := NewSGD(1, 0.5)
	p := tensor.MustNew(1)
	g := tensor.MustNew(1)
	g.Fill(1)
	opt.Step([]nn.Param{{T: p}}, []nn.Param{{T: g}}, 1) // v=1, p=-1
	opt.Step([]nn.Param{{T: p}}, []nn.Param{{T: g}}, 1) // v=1.5, p=-2.5
	if p.Data[0] != -2.5 {
		t.Errorf("momentum param = %v, want -2.5", p.Data[0])
	}
}

func TestNewTrainerValidation(t *testing.T) {
	g := tinyMLP(t)
	opt, _ := NewSGD(0.1, 0.9)
	if _, err := NewTrainer(g, opt, 0); err == nil {
		t.Error("zero batch should error")
	}
	if _, err := NewTrainer(g, opt, 16); err != nil {
		t.Errorf("valid trainer rejected: %v", err)
	}
	// Graph not ending in softmax.
	d, _ := nn.NewDense("d", 4, 4, rng(3))
	g2, _ := sequential(nn.NewFlatten("f"), d)
	if _, err := NewTrainer(g2, opt, 4); err == nil {
		t.Error("non-softmax tail should error")
	}
	// Graph with a non-backprop layer (GlobalAvgPool).
	g3 := nn.NewGraph()
	mustAdd(t, g3, nn.NewGlobalAvgPool("gap"))
	mustAdd(t, g3, nn.NewSoftmax("sm"))
	if _, err := NewTrainer(g3, opt, 4); err == nil {
		t.Error("non-backprop layer should error")
	}
	// Non-sequential graph.
	g4 := nn.NewGraph()
	a, _ := nn.NewDense("a", 4, 4, rng(4))
	b, _ := nn.NewDense("b", 4, 4, rng(5))
	mustAdd(t, g4, a)
	mustAdd(t, g4, b, nn.InputName)
	mustAdd(t, g4, nn.NewSoftmax("sm"))
	if _, err := NewTrainer(g4, opt, 4); err == nil {
		t.Error("non-sequential graph should error")
	}
}

func TestTrainingReducesLossAndLearns(t *testing.T) {
	samples, err := dataset.Digits(400, 42)
	if err != nil {
		t.Fatal(err)
	}
	trainSet, testSet, err := dataset.Split(samples, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	g := tinyMLP(t)
	opt, _ := NewSGD(0.05, 0.9)
	tr, err := NewTrainer(g, opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Accuracy(g, testSet)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := tr.Fit(trainSet, 5)
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v", losses)
	}
	after, err := Accuracy(g, testSet)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.8 {
		t.Errorf("test accuracy after training = %v, want >= 0.8 (before: %v)", after, before)
	}
	if after <= before {
		t.Errorf("accuracy did not improve: %v -> %v", before, after)
	}
}

func TestTrainEpochErrors(t *testing.T) {
	g := tinyMLP(t)
	opt, _ := NewSGD(0.1, 0)
	tr, _ := NewTrainer(g, opt, 4)
	if _, err := tr.TrainEpoch(nil); err == nil {
		t.Error("empty sample set should error")
	}
	bad := []dataset.Sample{{Image: tensor.MustNew(dataset.DigitSize, dataset.DigitSize, 1), Label: 99}}
	if _, err := tr.TrainEpoch(bad); err == nil {
		t.Error("out-of-range label should error")
	}
	if _, err := tr.Fit(nil, 0); err == nil {
		t.Error("zero epochs should error")
	}
}

// TestTrainEpochAllocBound pins a warm LeNet-5 epoch's allocations: the
// forward Runner and the Trainer's backward arena are warm after one
// epoch, so what an epoch allocates must not grow with its samples.
func TestTrainEpochAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation")
	}
	m, err := models.LeNet5(2020)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.Digits(64, 2020)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := NewSGD(0.05, 0.9)
	tr, err := NewTrainer(m.Graph, opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	epoch := func(n int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := tr.TrainEpoch(samples[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	a32, a64 := epoch(32), epoch(64)
	if a64 > a32 {
		t.Errorf("a warm epoch allocates %v times on 64 samples, %v on 32: allocation grows with the samples", a64, a32)
	}
	t.Logf("warm epoch allocations: %v on 32 samples, %v on 64", a32, a64)
}

func TestTopKAccuracy(t *testing.T) {
	g := tinyMLP(t)
	samples, _ := dataset.Digits(20, 9)
	top1, err := TopKAccuracyWorkers(g, samples, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	topAll, err := TopKAccuracyWorkers(g, samples, dataset.NumClasses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if topAll != 1 {
		t.Errorf("top-%d accuracy = %v, want 1", dataset.NumClasses, topAll)
	}
	if top1 > topAll {
		t.Error("top-1 exceeded top-all")
	}
	if _, err := TopKAccuracyWorkers(g, nil, 1, 1); err == nil {
		t.Error("no samples should error")
	}
	if _, err := TopKAccuracyWorkers(g, samples, 0, 1); err == nil {
		t.Error("k=0 should error")
	}
}

func TestFidelitySelfIsOne(t *testing.T) {
	g := tinyMLP(t)
	probes := make([]*tensor.Tensor, 8)
	imgs, _ := dataset.SyntheticImages(8, dataset.DigitSize, dataset.DigitSize, 1, 11)
	copy(probes, imgs)
	f, err := NewFidelity(g, probes, 5)
	if err != nil {
		t.Fatal(err)
	}
	score, err := f.Overlap(g, probes)
	if err != nil {
		t.Fatal(err)
	}
	if score != 1 {
		t.Errorf("self fidelity = %v, want 1", score)
	}
}

func TestFidelityDegradesUnderPerturbation(t *testing.T) {
	g := tinyMLP(t)
	imgs, _ := dataset.SyntheticImages(16, dataset.DigitSize, dataset.DigitSize, 1, 12)
	f, err := NewFidelity(g, imgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Obliterate fc2: predictions become near-arbitrary.
	fc2 := g.Layer("fc2").(*nn.Dense)
	r := rng(13)
	fc2.W.RandNormal(r, 0, 10)
	fc2.B.RandNormal(r, 0, 10)
	score, err := f.Overlap(g, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if score > 0.9 {
		t.Errorf("fidelity after obliteration = %v, expected degradation", score)
	}
}

func TestFidelityOverlapFromMatchesOverlap(t *testing.T) {
	g := tinyMLP(t)
	imgs, _ := dataset.SyntheticImages(6, dataset.DigitSize, dataset.DigitSize, 1, 14)
	f, err := NewFidelity(g, imgs, 5)
	if err != nil {
		t.Fatal(err)
	}
	acts := cachedActs(t, g, imgs)
	// Perturb fc2 weights and compare full vs cached-prefix scoring.
	fc2 := g.Layer("fc2").(*nn.Dense)
	fc2.W.Data[0] += 1
	full, err := f.Overlap(g, imgs)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := f.OverlapFromWorkers(g, acts, "fc2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if full != cached {
		t.Errorf("Overlap %v != OverlapFromWorkers %v", full, cached)
	}
	if _, err := f.OverlapFromWorkers(g, acts[:2], "fc2", 1); err == nil {
		t.Error("probe count mismatch should error")
	}
}

func TestFidelityValidation(t *testing.T) {
	g := tinyMLP(t)
	if _, err := NewFidelity(g, nil, 5); err == nil {
		t.Error("no probes should error")
	}
	imgs, _ := dataset.SyntheticImages(2, dataset.DigitSize, dataset.DigitSize, 1, 15)
	if _, err := NewFidelity(g, imgs, 0); err == nil {
		t.Error("k=0 should error")
	}
	f, _ := NewFidelity(g, imgs, 5)
	if _, err := f.OverlapWorkers(g, imgs[:1], 2); err == nil {
		t.Error("probe count mismatch should error")
	}
}

func TestSGDClipNorm(t *testing.T) {
	opt, _ := NewSGD(1, 0)
	if opt.ClipNorm != 5 {
		t.Fatalf("default ClipNorm = %v, want 5", opt.ClipNorm)
	}
	opt.ClipNorm = 1
	p := tensor.MustNew(1)
	g := tensor.MustNew(1)
	g.Fill(100) // norm 100, clipped to 1
	if err := opt.Step([]nn.Param{{T: p}}, []nn.Param{{T: g}}, 1); err != nil {
		t.Fatal(err)
	}
	if p.Data[0] != -1 {
		t.Errorf("clipped step moved param to %v, want -1", p.Data[0])
	}
	// Clipping off: the full gradient applies.
	opt2, _ := NewSGD(1, 0)
	opt2.ClipNorm = 0
	p2 := tensor.MustNew(1)
	opt2.Step([]nn.Param{{T: p2}}, []nn.Param{{T: g}}, 1)
	if p2.Data[0] != -100 {
		t.Errorf("unclipped step = %v, want -100", p2.Data[0])
	}
}

func TestTrainerLRDecay(t *testing.T) {
	g := tinyMLP(t)
	opt, _ := NewSGD(0.1, 0)
	tr, _ := NewTrainer(g, opt, 8)
	tr.LRDecay = 0.5
	samples, _ := dataset.Digits(64, 20)
	if _, err := tr.Fit(samples, 2); err != nil {
		t.Fatal(err)
	}
	if opt.LR != 0.025 {
		t.Errorf("LR after two decayed epochs = %v, want 0.025", opt.LR)
	}
}

func TestFidelityOverlap(t *testing.T) {
	g := tinyMLP(t)
	imgs, _ := dataset.SyntheticImages(8, dataset.DigitSize, dataset.DigitSize, 1, 30)
	f, err := NewFidelity(g, imgs, 5)
	if err != nil {
		t.Fatal(err)
	}
	self, err := f.Overlap(g, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if self != 1 {
		t.Errorf("self overlap = %v, want 1", self)
	}
	// Cached-prefix variant must agree with the direct one after a
	// selected-layer perturbation.
	acts := cachedActs(t, g, imgs)
	fc2 := g.Layer("fc2").(*nn.Dense)
	fc2.W.RandNormal(rng(31), 0, 5)
	direct, err := f.Overlap(g, imgs)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := f.OverlapFromWorkers(g, acts, "fc2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if direct != cached {
		t.Errorf("Overlap %v != OverlapFromWorkers %v", direct, cached)
	}
	if direct >= 1 {
		t.Errorf("obliterated layer kept overlap %v; test vacuous", direct)
	}
	// Overlap resolves partial agreement: it can sit strictly between 0 and 1.
	if direct != 0 && direct != 1 {
		// expected for most seeds; nothing to assert harder
		t.Logf("overlap resolves fractional agreement: %v", direct)
	}
	if _, err := f.Overlap(g, imgs[:2]); err == nil {
		t.Error("probe mismatch should error")
	}
	if _, err := f.OverlapFromWorkers(g, acts[:2], "fc2", 1); err == nil {
		t.Error("cache mismatch should error")
	}
}

// sequential builds a linear graph from the given layers.
func sequential(layers ...nn.Layer) (*nn.Graph, error) {
	g := nn.NewGraph()
	for _, l := range layers {
		if err := g.Add(l); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// mustAdd adds l to g, failing the test on error.
func mustAdd(t testing.TB, g *nn.Graph, l nn.Layer, inputs ...string) {
	t.Helper()
	if err := g.Add(l, inputs...); err != nil {
		t.Fatal(err)
	}
}
