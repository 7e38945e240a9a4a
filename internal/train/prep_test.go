package train

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestFitLeavesNoStalePreparation trains LeNet-5, then rewrites one
// layer's weights outside any training or memo pass. A Runner acquired
// from the trained graph (the one training used comes back from the
// idle list) and a memo pass must then compute exactly what a freshly
// built graph holding the same weights computes: the Trainer's weight
// preparations and argmax records must not outlive its epochs.
func TestFitLeavesNoStalePreparation(t *testing.T) {
	m, err := models.LeNet5(7)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.Digits(120, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.05, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m.Graph, opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(samples[:100], 2); err != nil {
		t.Fatal(err)
	}
	probes := samples[100:]
	for _, name := range []string{"conv_1", "conv_2", "dense_1"} {
		w, err := m.LayerWeights(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w {
			w[i] = -0.75 * w[i]
		}
		if err := m.SetLayerWeights(name, w); err != nil {
			t.Fatal(err)
		}

		fresh, err := models.LeNet5(99)
		if err != nil {
			t.Fatal(err)
		}
		trained, rebuilt := m.Graph.Layers(), fresh.Graph.Layers()
		for i, l := range trained {
			if err := nn.SetWeightStream(rebuilt[i], nn.WeightStream(l)); err != nil {
				t.Fatal(err)
			}
		}
		ref := fresh.Graph.WithScratch()
		want := make([]*tensor.Tensor, len(probes))
		xs := make([]*tensor.Tensor, len(probes))
		for i, s := range probes {
			y, err := ref.Forward(s.Image)
			if err != nil {
				t.Fatal(err)
			}
			want[i], xs[i] = y.Clone(), s.Image
		}

		r := m.Graph.AcquireRunner()
		for i, x := range xs {
			y, err := r.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			sameLogits(t, name+" plain Runner", i, y, want[i])
		}
		pass := m.Graph.BeginMemo(xs)
		for i := range xs {
			y, err := pass.Forward(r, i)
			if err != nil {
				pass.End(err)
				t.Fatal(err)
			}
			sameLogits(t, name+" memo pass", i, y, want[i])
		}
		pass.End(nil)
		r.Release()
	}
}

// sameLogits fails unless got and want hold the same float32 bits.
func sameLogits(t *testing.T, what string, i int, got, want *tensor.Tensor) {
	t.Helper()
	for j := range want.Data {
		if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
			t.Fatalf("%s, probe %d, output %d: %v, want %v", what, i, j, got.Data[j], want.Data[j])
		}
	}
}
