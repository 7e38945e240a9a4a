package train

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
)

// BenchmarkFit trains LeNet-5 as perfbench's lenet-plan set-up does: 300
// of 400 seed-2020 digits, 3 epochs, batch 16, learning-rate decay 0.85.
// Each iteration trains a freshly built model; the build is not timed.
func BenchmarkFit(b *testing.B) {
	samples, err := dataset.Digits(400, 2020)
	if err != nil {
		b.Fatal(err)
	}
	trainSet, _, err := dataset.Split(samples, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := models.LeNet5(2020)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := NewSGD(0.05, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := NewTrainer(m.Graph, opt, 16)
		if err != nil {
			b.Fatal(err)
		}
		tr.LRDecay = 0.85
		b.StartTimer()
		if _, err := tr.Fit(trainSet, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSGDStep is one optimizer step over LeNet-5's parameters as
// TrainEpoch takes it: one Step per parameterized layer with batch 16's
// scale, against fixed normal gradients.
func BenchmarkSGDStep(b *testing.B) {
	m, err := models.LeNet5(2020)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := NewSGD(0.05, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	var params, grads [][]nn.Param
	r := rng(5)
	for _, l := range m.Graph.Layers() {
		if p := l.Params(); len(p) > 0 {
			g := make([]nn.Param, len(p))
			for i, q := range p {
				g[i] = nn.Param{Name: q.Name, T: q.T.Clone()}
				g[i].T.RandNormal(r, 0, 1)
			}
			params, grads = append(params, p), append(grads, g)
		}
	}
	step := func() {
		for i := range params {
			if err := opt.Step(params[i], grads[i], 1.0/16); err != nil {
				b.Fatal(err)
			}
		}
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
