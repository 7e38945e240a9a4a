package accel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// BenchmarkSimulateLeNet measures a full cycle-accurate LeNet-5 inference
// on the 4x4 platform.
func BenchmarkSimulateLeNet(b *testing.B) {
	m, err := models.LeNet5(1)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := SpecsFromModel(m, nil, core.DefaultStorage)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.SimulateModel(m.Name, specs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkSimulateLeNetSerialCompressed and BenchmarkSimulateLeNetOverlap
// run the delta-15-compressed model under the serial and streaming
// schedules: the sim-cycles metrics show the modeled latency win, the
// ns/op pair shows what the pipeline model costs the simulator itself.
func BenchmarkSimulateLeNetSerialCompressed(b *testing.B) { benchSimulateLeNetOverlap(b, false) }

func BenchmarkSimulateLeNetOverlap(b *testing.B) { benchSimulateLeNetOverlap(b, true) }

func benchSimulateLeNetOverlap(b *testing.B, overlap bool) {
	m, err := models.LeNet5(2020)
	if err != nil {
		b.Fatal(err)
	}
	w, err := m.SelectedWeights()
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.CompressPct(w, 15)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := SpecsFromModel(m, map[string]*core.Compressed{m.SelectedLayer: c}, core.DefaultStorage)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Overlap = overlap
	sim, err := NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.SimulateModel(m.Name, specs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkSimulateLayerFC measures the per-layer engine on a large dense
// layer with steady-state extrapolation.
func BenchmarkSimulateLayerFC(b *testing.B) {
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := LayerSpec{
		Name: "fc", Kind: "FC",
		MACs: 16_000_000, WeightBytes: 64_000_000, InputBytes: 16_384, OutputBytes: 16_384,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateLayer(spec); err != nil {
			b.Fatal(err)
		}
	}
}
