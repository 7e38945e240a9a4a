package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Fig2Row is one layer of the LeNet-5 latency/energy breakdown (Fig. 2).
type Fig2Row struct {
	Layer   string
	Kind    string
	Cycles  uint64
	Latency accel.LatencyBreakdown
	Energy  accel.EnergyBreakdown
}

// Fig2 reproduces Fig. 2: the per-layer latency and energy breakdown of
// an uncompressed LeNet-5 inference on the accelerator. Values are
// absolute; normalize against the largest layer to plot as the paper does.
func Fig2(opts Options) ([]Fig2Row, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	m, err := models.LeNet5(opts.Seed)
	if err != nil {
		return nil, err
	}
	sim, err := accel.NewSimulator(opts.Accel)
	if err != nil {
		return nil, err
	}
	sim.SetWorkers(opts.Workers)
	sim.SetObserver(opts.Obs)
	specs, err := accel.SpecsFromModel(m, nil, opts.Storage)
	if err != nil {
		return nil, err
	}
	res, err := sim.SimulateModelContext(opts.ctx(), m.Name, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig2Row, 0, len(res.Layers))
	for _, l := range res.Layers {
		rows = append(rows, Fig2Row{
			Layer:   l.Name,
			Kind:    l.Kind,
			Cycles:  l.Cycles,
			Latency: l.Latency,
			Energy:  l.Energy,
		})
	}
	return rows, nil
}

// Fig3Row is one corpus entropy measurement (Fig. 3).
type Fig3Row struct {
	Corpus      string
	Bytes       int
	EntropyBits float64 // bits per 8-bit symbol
}

// Fig3 reproduces Fig. 3: the Shannon entropy of serialized CNN weight
// streams compared against random data (upper bound) and natural text
// (highly redundant), showing why entropy coders cannot compress trained
// weights.
func Fig3(opts Options) ([]Fig3Row, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	const corpusBytes = 1 << 20
	rows := []Fig3Row{
		{Corpus: "random", Bytes: corpusBytes,
			EntropyBits: entropy.Shannon(entropy.RandomBytes(corpusBytes, opts.Seed))},
		{Corpus: "text", Bytes: corpusBytes,
			EntropyBits: entropy.Shannon(entropy.SyntheticText(corpusBytes, opts.Seed))},
	}
	builders, err := opts.selectedBuilders()
	if err != nil {
		return nil, err
	}
	modelRows, err := parallel.Map(opts.ctx(), opts.workers(), len(builders),
		func(_ context.Context, i int) (Fig3Row, error) {
			m, err := builders[i].Build(opts.Seed)
			if err != nil {
				return Fig3Row{}, err
			}
			w, err := m.SelectedWeights()
			if err != nil {
				return Fig3Row{}, err
			}
			if len(w) > corpusBytes/4 {
				w = w[:corpusBytes/4]
			}
			data := entropy.Float32Bytes(w)
			return Fig3Row{Corpus: m.Name, Bytes: len(data), EntropyBits: entropy.Shannon(data)}, nil
		})
	if err != nil {
		return nil, err
	}
	return append(rows, modelRows...), nil
}

// Fig9Row is one layer's sensitivity measurement (Fig. 9).
type Fig9Row struct {
	Model       string
	Layer       string
	Kind        string
	Params      int
	Sensitivity float64 // normalized accuracy impact of perturbing the layer
	// PerParam is the sensitivity density: accuracy impact per perturbed
	// parameter, normalized. Large deep layers have high absolute impact
	// simply because they hold most parameters; the density profile is
	// what justifies the paper's policy of compressing the deepest,
	// largest layer (lowest per-parameter sensitivity, highest footprint).
	PerParam float64
}

// fig9Models is the paper's Fig. 9 selection.
var fig9Models = []string{"LeNet-5", "AlexNet"}

// Fig9 reproduces Fig. 9: the per-layer sensitivity analysis. Each
// layer's weights are perturbed with uniform noise proportional to the
// layer's amplitude (the same error profile the lossy compression
// induces) and the resulting accuracy drop is measured and normalized to
// the most sensitive layer. The perturbation level escalates (5%, 10%,
// 20%, 40%) until at least one layer responds measurably, so the relative
// profile is resolved for both the robust trained LeNet-5 and the
// fidelity-measured models.
func Fig9(opts Options) ([]Fig9Row, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	names := fig9Models
	if len(opts.Models) > 0 {
		names = opts.Models
	} else if opts.Fast {
		names = []string{"LeNet-5"}
	}
	perModel, err := parallel.Map(opts.ctx(), opts.workers(), len(names),
		func(_ context.Context, ni int) ([]Fig9Row, error) {
			return fig9Model(names[ni], opts)
		})
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, mr := range perModel {
		rows = append(rows, mr...)
	}
	return rows, nil
}

// fig9Model runs the sensitivity sweep for one model. The perturbation
// loop mutates the model's weight tensors in place, so it stays serial
// within one model.
func fig9Model(name string, opts Options) ([]Fig9Row, error) {
	b, err := models.ByName(name)
	if err != nil {
		return nil, err
	}
	m, err := b.Build(opts.Seed)
	if err != nil {
		return nil, err
	}
	ev, err := newEvaluator(m, opts)
	if err != nil {
		return nil, err
	}
	base, err := ev.baseline(m)
	if err != nil {
		return nil, err
	}
	var drops []float64
	var layerRows []Fig9Row
	for _, level := range []float64{0.05, 0.10, 0.20, 0.40} {
		rng := rand.New(rand.NewSource(opts.Seed ^ 0xf19))
		drops = drops[:0]
		layerRows = layerRows[:0]
		maxDrop := 0.0
		for _, l := range layerParamTensors(m.Graph) {
			wt := l.Params()[0].T
			orig := wt.Float64s()
			amp := stats.Amplitude(orig)
			noisy := make([]float64, len(orig))
			for i, v := range orig {
				noisy[i] = v + (rng.Float64()*2-1)*amp*level
			}
			if err := wt.SetFloat64s(noisy); err != nil {
				return nil, err
			}
			acc, err := ev.fineAccuracy(m)
			if err != nil {
				return nil, err
			}
			if err := wt.SetFloat64s(orig); err != nil {
				return nil, err
			}
			drop := base - acc
			if drop < 0 {
				drop = 0
			}
			if drop > maxDrop {
				maxDrop = drop
			}
			drops = append(drops, drop)
			layerRows = append(layerRows, Fig9Row{
				Model: m.Name, Layer: l.Name(), Kind: l.Kind(),
				Params: l.Params()[0].T.Size(),
			})
		}
		if maxDrop >= 0.02 {
			break // this level resolves the profile
		}
	}
	norm := stats.Normalize(drops)
	perParam := make([]float64, len(drops))
	for i := range drops {
		perParam[i] = drops[i] / float64(layerRows[i].Params)
	}
	perParam = stats.Normalize(perParam)
	for i := range layerRows {
		layerRows[i].Sensitivity = norm[i]
		layerRows[i].PerParam = perParam[i]
	}
	return layerRows, nil
}

// Fig10Point is one configuration of a model's trade-off plot (Fig. 10):
// the original network or a compressed variant at one delta value.
type Fig10Point struct {
	Model       string
	Config      string // "orig" or "x-<delta>"
	DeltaPct    float64
	Accuracy    float64
	Cycles      uint64
	LatencyNorm float64 // cycles / original cycles
	EnergyNorm  float64 // energy / original energy
	Latency     accel.LatencyBreakdown
	Energy      accel.EnergyBreakdown
}

// Fig10 reproduces Fig. 10 for the selected models: for the original
// network and each delta value, the accuracy (top-1 for the trained
// LeNet-5, top-5 fidelity otherwise), the inference latency and the
// inference energy with their breakdowns, normalized to the original.
func Fig10(opts Options) ([]Fig10Point, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	builders, err := opts.selectedBuilders()
	if err != nil {
		return nil, err
	}
	sim, err := accel.NewSimulator(opts.Accel)
	if err != nil {
		return nil, err
	}
	sim.SetWorkers(opts.Workers)
	sim.SetObserver(opts.Obs)
	// One work item per model: the delta sweep mutates the model's
	// selected layer in place, so points within a model are produced
	// serially, while the models themselves fan out. The shared Simulator
	// is safe for concurrent use and additionally parallelizes over the
	// layers of each simulated configuration.
	perModel, err := parallel.Map(opts.ctx(), opts.workers(), len(builders),
		func(ctx context.Context, bi int) ([]Fig10Point, error) {
			return checkpointed(opts, "fig10/"+builders[bi].Name, func() ([]Fig10Point, error) {
				return fig10Model(ctx, builders[bi], sim, opts)
			})
		})
	if err != nil {
		return nil, err
	}
	var points []Fig10Point
	for _, mp := range perModel {
		points = append(points, mp...)
	}
	return points, nil
}

// fig10Model runs the Fig. 10 trade-off sweep for one model; ctx bounds
// its simulations.
func fig10Model(ctx context.Context, b models.Builder, sim *accel.Simulator, opts Options) ([]Fig10Point, error) {
	m, err := b.Build(opts.Seed)
	if err != nil {
		return nil, err
	}
	ev, err := newEvaluator(m, opts) // trains LeNet for real
	if err != nil {
		return nil, err
	}
	baseAcc, err := ev.baseline(m)
	if err != nil {
		return nil, err
	}
	baseSpecs, err := accel.SpecsFromModel(m, nil, opts.Storage)
	if err != nil {
		return nil, err
	}
	baseRes, err := sim.SimulateModelContext(ctx, m.Name, baseSpecs)
	if err != nil {
		return nil, err
	}
	points := []Fig10Point{{
		Model: m.Name, Config: "orig", Accuracy: baseAcc,
		Cycles: baseRes.Cycles, LatencyNorm: 1, EnergyNorm: 1,
		Latency: baseRes.Latency, Energy: baseRes.Energy,
	}}
	orig, err := snapshotSelected(m)
	if err != nil {
		return nil, err
	}
	for _, pct := range DeltaGrid(m.Name) {
		c, err := core.CompressPct(orig, pct)
		if err != nil {
			return nil, err
		}
		approx, err := c.Decompress()
		if err != nil {
			return nil, err
		}
		if err := m.SetSelectedWeights(approx); err != nil {
			return nil, err
		}
		acc, err := ev.accuracy(m)
		if err != nil {
			return nil, err
		}
		specs, err := accel.SpecsFromModel(m, map[string]*core.Compressed{m.SelectedLayer: c}, opts.Storage)
		if err != nil {
			return nil, err
		}
		res, err := sim.SimulateModelContext(ctx, m.Name, specs)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig10Point{
			Model:       m.Name,
			Config:      fmt.Sprintf("x-%g", pct),
			DeltaPct:    pct,
			Accuracy:    acc,
			Cycles:      res.Cycles,
			LatencyNorm: float64(res.Cycles) / float64(baseRes.Cycles),
			EnergyNorm:  res.Energy.Total() / baseRes.Energy.Total(),
			Latency:     res.Latency,
			Energy:      res.Energy,
		})
	}
	if err := m.SetSelectedWeights(orig); err != nil {
		return nil, err
	}
	return points, nil
}
