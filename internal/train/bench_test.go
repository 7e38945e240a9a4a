package train

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
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
