// Package repro's root benchmark harness: one testing.B benchmark per
// paper table and figure (running the experiment at test scale; use
// cmd/benchtables for the full sweeps), plus ablation benchmarks for the
// design decisions called out in DESIGN.md. Custom metrics report the
// quantities of interest (compression ratios, cycle counts) alongside the
// usual ns/op.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/stats"
)

func benchOpts() experiments.Options {
	o := experiments.FastOptions()
	o.Seed = 2020
	return o
}

// BenchmarkTable1ModelInventory regenerates Table I.
func BenchmarkTable1ModelInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].Params), "params")
		}
	}
}

// BenchmarkTable2Compression regenerates Table II.
func BenchmarkTable2Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].CR, "CR@20%")
		}
	}
}

// BenchmarkTable3QuantCompress regenerates Table III.
func BenchmarkTable3QuantCompress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].WeightedCR, "wCR@20%")
		}
	}
}

// BenchmarkFig2LayerBreakdown regenerates Fig. 2.
func BenchmarkFig2LayerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var mem, tot uint64
			for _, r := range rows {
				mem += r.Latency.Memory
				tot += r.Cycles
			}
			b.ReportMetric(float64(mem)/float64(tot), "mem-frac")
		}
	}
}

// BenchmarkFig3Entropy regenerates Fig. 3.
func BenchmarkFig3Entropy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].EntropyBits, "bits/byte")
		}
	}
}

// BenchmarkFig9Sensitivity regenerates Fig. 9.
func BenchmarkFig9Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10TradeOff regenerates Fig. 10.
func BenchmarkFig10TradeOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].LatencyNorm, "lat@20%")
			b.ReportMetric(pts[len(pts)-1].EnergyNorm, "energy@20%")
		}
	}
}

// benchWeights returns a calibrated trained-like weight stream.
func benchWeights(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		v := rng.NormFloat64()
		if v > 4 {
			v = 4
		} else if v < -4 {
			v = -4
		}
		w[i] = v * 0.01
	}
	w[0], w[1] = 0.04, -0.04
	return w
}

// BenchmarkAblationStrictVsWeak compares the strict-sense criterion
// (delta = 0) against the weak-sense criterion at delta = 15% — the
// Fig. 5 design decision.
func BenchmarkAblationStrictVsWeak(b *testing.B) {
	w := benchWeights(200_000, 11)
	var crStrict, crWeak float64
	for i := 0; i < b.N; i++ {
		s, err := core.Compress(w, 0)
		if err != nil {
			b.Fatal(err)
		}
		k, err := core.CompressPct(w, 15)
		if err != nil {
			b.Fatal(err)
		}
		crStrict = s.CompressionRatio(core.DefaultStorage)
		crWeak = k.CompressionRatio(core.DefaultStorage)
	}
	b.ReportMetric(crStrict, "CR-strict")
	b.ReportMetric(crWeak, "CR-weak15")
}

// BenchmarkAblationStorageFormat compares the paper's two-word segment
// accounting against the conservative layout with an explicit 16-bit
// length field.
func BenchmarkAblationStorageFormat(b *testing.B) {
	w := benchWeights(200_000, 12)
	var paper, realistic float64
	for i := 0; i < b.N; i++ {
		c, err := core.CompressPct(w, 15)
		if err != nil {
			b.Fatal(err)
		}
		paper = c.CompressionRatio(core.DefaultStorage)
		realistic = c.CompressionRatio(core.RealisticStorage)
	}
	b.ReportMetric(paper, "CR-paper")
	b.ReportMetric(realistic, "CR-realistic")
}

// BenchmarkAblationLeastSquaresVsEndpoint compares the per-segment
// least-squares fit against the cheaper endpoint interpolation.
func BenchmarkAblationLeastSquaresVsEndpoint(b *testing.B) {
	w := benchWeights(100_000, 13)
	var mseLSQ, mseEnd float64
	for i := 0; i < b.N; i++ {
		c, err := core.CompressPct(w, 15)
		if err != nil {
			b.Fatal(err)
		}
		approx, err := c.Decompress()
		if err != nil {
			b.Fatal(err)
		}
		mseLSQ, _ = stats.MSE(w, approx)
		// Endpoint interpolation over the same segmentation.
		runs := core.SegmentBounds(w, c.Delta)
		end := make([]float64, 0, len(w))
		for _, r := range runs {
			seg := w[r.Start : r.Start+r.Len]
			m := 0.0
			if r.Len > 1 {
				m = (seg[r.Len-1] - seg[0]) / float64(r.Len-1)
			}
			acc := float32(seg[0])
			for j := 0; j < r.Len; j++ {
				if j > 0 {
					acc += float32(m)
				}
				end = append(end, float64(acc))
			}
		}
		mseEnd, _ = stats.MSE(w, end)
	}
	b.ReportMetric(mseLSQ*1e6, "MSE-lsq-x1e6")
	b.ReportMetric(mseEnd*1e6, "MSE-endpoint-x1e6")
}

// BenchmarkAblationDecompressionThroughput compares a serial one-weight-
// per-cycle decompression unit against the default per-multiplier array
// (64/cycle) on the compressed LeNet dense_1 layer.
func BenchmarkAblationDecompressionThroughput(b *testing.B) {
	m, err := models.LeNet5(1)
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
	specs, err := accel.SpecsFromModel(m, map[string]*core.Compressed{m.SelectedLayer: c}, core.DefaultStorage)
	if err != nil {
		b.Fatal(err)
	}
	var fast, slow uint64
	for i := 0; i < b.N; i++ {
		cfg := accel.DefaultConfig()
		sim, err := accel.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rf, err := sim.SimulateModel(m.Name, specs)
		if err != nil {
			b.Fatal(err)
		}
		fast = rf.Cycles
		cfg.DecompUnits = 1
		sim1, err := accel.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sim1.SimulateModel(m.Name, specs)
		if err != nil {
			b.Fatal(err)
		}
		slow = rs.Cycles
	}
	b.ReportMetric(float64(fast), "cycles-64/cy")
	b.ReportMetric(float64(slow), "cycles-1/cy")
}

// BenchmarkAblationDecompressPlacement compares decompression inside the
// PEs (compressed flits cross the NoC, the paper's design) against
// decompression at the memory interfaces (only DRAM traffic shrinks).
func BenchmarkAblationDecompressPlacement(b *testing.B) {
	m, err := models.LeNet5(1)
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
	pe, err := accel.SpecsFromModel(m, map[string]*core.Compressed{m.SelectedLayer: c}, core.DefaultStorage)
	if err != nil {
		b.Fatal(err)
	}
	// Memory-side variant: DRAM sees compressed bytes, NoC sees raw.
	mem, err := accel.SpecsFromModel(m, nil, core.DefaultStorage)
	if err != nil {
		b.Fatal(err)
	}
	for i := range mem {
		if mem[i].Name == m.SelectedLayer {
			mem[i].WeightBytesDRAM = pe[i].WeightBytes
		}
	}
	sim, err := accel.NewSimulator(accel.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var atPE, atMI uint64
	for i := 0; i < b.N; i++ {
		rp, err := sim.SimulateModel(m.Name, pe)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := sim.SimulateModel(m.Name, mem)
		if err != nil {
			b.Fatal(err)
		}
		atPE, atMI = rp.Cycles, rm.Cycles
	}
	b.ReportMetric(float64(atPE), "cycles-PE-decomp")
	b.ReportMetric(float64(atMI), "cycles-MI-decomp")
}
