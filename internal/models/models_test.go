package models

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("model count = %d, want 6", len(all))
	}
	want := []string{"LeNet-5", "AlexNet", "VGG-16", "MobileNet", "Inception-v3", "ResNet50"}
	for i, b := range all {
		if b.Name != want[i] {
			t.Errorf("model %d = %s, want %s", i, b.Name, want[i])
		}
	}
	if _, err := ByName("LeNet-5"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("NotANet"); err == nil {
		t.Error("unknown model should error")
	}
	if len(Small()) != 1 {
		t.Error("Small should hold the test-scale set")
	}
}

func TestLeNetInventory(t *testing.T) {
	m, err := LeNet5(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalParams() != 61706 {
		t.Errorf("params = %d, want 61706", m.TotalParams())
	}
	if m.SelectedLayer != "dense_1" || m.SelectedKind != "FC" {
		t.Errorf("selected = %s (%s)", m.SelectedLayer, m.SelectedKind)
	}
	if f := m.SelectedFraction(); math.Abs(f-0.78) > 0.02 {
		t.Errorf("fraction = %v", f)
	}
	w, err := m.SelectedWeights()
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 48000 {
		t.Errorf("selected weights = %d", len(w))
	}
}

func TestLeNetForwardAndDeterminism(t *testing.T) {
	m1, err := LeNet5(42)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LeNet5(42)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := m1.SelectedWeights()
	w2, _ := m2.SelectedWeights()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	m3, err := LeNet5(43)
	if err != nil {
		t.Fatal(err)
	}
	w3, _ := m3.SelectedWeights()
	same := true
	for i := range w1 {
		if w1[i] != w3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical weights")
	}
	img, err := dataset.DigitImage(3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	y, err := m1.Graph.WithScratch().Forward(img)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, y.Float64s(), 10)
}

func TestSetLayerWeights(t *testing.T) {
	m, err := LeNet5(1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := m.LayerWeights("dense_2")
	mod := make([]float64, len(w))
	copy(mod, w)
	mod[0] = 42
	if err := m.SetLayerWeights("dense_2", mod); err != nil {
		t.Fatal(err)
	}
	got, _ := m.LayerWeights("dense_2")
	if got[0] != 42 {
		t.Error("SetLayerWeights did not stick")
	}
	if _, err := m.LayerWeights("ghost"); err == nil {
		t.Error("unknown layer should error")
	}
	if err := m.SetLayerWeights("ghost", w); err == nil {
		t.Error("unknown layer set should error")
	}
	if err := m.SetSelectedWeights(w[:5]); err == nil {
		t.Error("short stream should error")
	}
	// Parameter-free layer.
	if _, err := m.LayerWeights("pool_1"); err == nil {
		t.Error("parameter-free layer should error")
	}
	if m.SelectedFraction() <= 0 {
		t.Error("SelectedFraction broken")
	}
}

func TestInitTrainedLike(t *testing.T) {
	x := tensor.MustNew(100000)
	rng := rand.New(rand.NewSource(3))
	initTrainedLike(x, rng, 0.01, 5)
	vals := x.Float64s()
	amp := stats.Amplitude(vals)
	if math.Abs(amp-2*5*0.01) > 1e-6 {
		t.Errorf("amplitude = %v, want exactly %v", amp, 0.1)
	}
	// Bulk sigma near 0.01 (clipping at 5 sigma barely affects it).
	if sd := stats.StdDev(vals); math.Abs(sd-0.01) > 0.001 {
		t.Errorf("std = %v, want ~0.01", sd)
	}
	// Clipping: no value beyond the planted extremes.
	for _, v := range vals {
		if v > 0.05+1e-9 || v < -0.05-1e-9 {
			t.Fatalf("value %v beyond clip", v)
		}
	}
	// Degenerate tiny tensor must not panic.
	tiny := tensor.MustNew(1)
	initTrainedLike(tiny, rng, 1, 2)
}

// paperInventory pins the Table I values each builder must reproduce.
var paperInventory = []struct {
	name     string
	params   int // measured (asserted exactly: the builders are deterministic)
	paperK   int // paper's reported total
	selected string
	kind     string
	tolPct   float64 // allowed |params - paperK*1000| / (paperK*1000)
}{
	{"LeNet-5", 61706, 62, "dense_1", "FC", 0.01},
	{"AlexNet", 24572072, 24000, "dense_2", "FC", 0.03},
	{"VGG-16", 138357544, 138000, "dense_1", "FC", 0.01},
	{"MobileNet", 4264808, 4250, "conv_preds", "CONV", 0.01},
	{"Inception-v3", 23886216, 23850, "pred", "CONV", 0.01},
	{"ResNet50", 25636712, 25640, "fc1000", "FC", 0.01},
}

func TestAllModelInventoriesMatchTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("large model builds in -short mode")
	}
	for _, want := range paperInventory {
		b, err := ByName(want.name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := b.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if got := m.TotalParams(); got != want.params {
			t.Errorf("%s: params = %d, want %d", want.name, got, want.params)
		}
		paperTotal := float64(want.paperK) * 1000
		if dev := math.Abs(float64(m.TotalParams())-paperTotal) / paperTotal; dev > want.tolPct {
			t.Errorf("%s: deviates %.1f%% from the paper's %dk", want.name, 100*dev, want.paperK)
		}
		if m.SelectedLayer != want.selected || m.SelectedKind != want.kind {
			t.Errorf("%s: selected %s (%s), want %s (%s)",
				want.name, m.SelectedLayer, m.SelectedKind, want.selected, want.kind)
		}
		if math.Abs(m.SelectedFraction()-m.PaperFraction) > 0.06 {
			t.Errorf("%s: fraction %.3f vs paper %.2f", want.name, m.SelectedFraction(), m.PaperFraction)
		}
	}
}

func TestMobileNetForward(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution forward in -short mode")
	}
	m, err := MobileNet(1)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := dataset.SyntheticImages(1, 224, 224, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.Graph.WithScratch().Forward(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, y.Float64s(), 1000)
}

func TestResNetForward(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution forward in -short mode")
	}
	m, err := ResNet50(1)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := dataset.SyntheticImages(1, 224, 224, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.Graph.WithScratch().Forward(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, y.Float64s(), 1000)
}

func TestInceptionForward(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution forward in -short mode")
	}
	m, err := InceptionV3(1)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := dataset.SyntheticImages(1, 299, 299, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.Graph.WithScratch().Forward(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, y.Float64s(), 1000)
}

func TestAlexNetForward(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution forward in -short mode")
	}
	m, err := AlexNet(1)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := dataset.SyntheticImages(1, 227, 227, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.Graph.WithScratch().Forward(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, y.Float64s(), 1000)
}

// checkDistribution asserts a softmax output: right size, finite,
// non-negative, sums to one.
func checkDistribution(t *testing.T, p []float64, classes int) {
	t.Helper()
	if len(p) != classes {
		t.Fatalf("output size = %d, want %d", len(p), classes)
	}
	var sum float64
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("bad probability p[%d] = %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}
