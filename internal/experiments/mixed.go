package experiments

import (
	"context"
	"fmt"

	"repro/internal/accel"
	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/planner"
)

// MixedPoint is one configuration of the mixed-codec Pareto sweep: the
// original network, one (codec, level) pair applied to the selected
// layer, or a per-layer mixed-codec plan found by the greedy planner
// under an accuracy-drop budget.
type MixedPoint struct {
	Model       string
	Config      string  // "orig", "<codec>-<level>", or "plan-<budget>"
	Codec       string  // codec name; "mixed" for planner points
	Level       float64 // codec level for single-codec points
	Budget      float64 // accuracy-drop budget for planner points
	Layers      int     // number of compressed layers
	WeightedCR  float64
	Accuracy    float64
	Cycles      uint64
	LatencyNorm float64 // cycles / original cycles
	EnergyNorm  float64 // energy / original energy
	Pareto      bool    // on the (WCR, accuracy, latency, energy) frontier
}

// MixedCodec sweeps the whole codec arena: every registered codec at
// every level on each model's selected layer, plus greedy mixed-codec
// plans over all compressible layers at a grid of accuracy budgets, each
// point costed for accuracy, weighted CR and simulated latency/energy.
// Like Fast mode, the default model set is the LeNet-scale group — the
// planner's full-forward evaluations are too slow for the giants unless
// they are requested explicitly via Options.Models.
//
// Points within a model are produced serially (the sweep mutates layer
// weights in place) while models fan out over the worker pool; results
// are collected by index, so every -workers value yields byte-identical
// CSVs.
func MixedCodec(opts Options) ([]MixedPoint, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var builders []models.Builder
	var err error
	if len(opts.Models) == 0 {
		builders = models.Small()
	} else if builders, err = opts.selectedBuilders(); err != nil {
		return nil, err
	}
	sim, err := accel.NewSimulator(opts.Accel)
	if err != nil {
		return nil, err
	}
	sim.SetWorkers(opts.Workers)
	sim.SetObserver(opts.Obs)
	perModel, err := parallel.Map(opts.ctx(), opts.workers(), len(builders),
		func(ctx context.Context, bi int) ([]MixedPoint, error) {
			return checkpointed(opts, "mixed/"+builders[bi].Name, func() ([]MixedPoint, error) {
				return mixedModel(ctx, builders[bi], sim, opts)
			})
		})
	if err != nil {
		return nil, err
	}
	var points []MixedPoint
	for _, mp := range perModel {
		points = append(points, mp...)
	}
	return points, nil
}

// mixedBudgets is the accuracy-drop grid for the planner points.
func (o Options) mixedBudgets() []float64 {
	if o.Fast {
		return []float64{0.05}
	}
	return []float64{0.01, 0.05}
}

// mixedEvals bounds the planner's accuracy evaluations per budget.
func (o Options) mixedEvals() int {
	if o.Fast {
		return 40
	}
	return 150
}

// mixedModel runs the sweep for one model; ctx bounds its simulations.
func mixedModel(ctx context.Context, b models.Builder, sim *accel.Simulator, opts Options) ([]MixedPoint, error) {
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
	baseSpecs, err := accel.SpecsFromModelCodec(m, nil)
	if err != nil {
		return nil, err
	}
	baseRes, err := sim.SimulateModelContext(ctx, m.Name, baseSpecs)
	if err != nil {
		return nil, err
	}
	points := []MixedPoint{{
		Model: m.Name, Config: "orig", Accuracy: baseAcc, WeightedCR: 1,
		Cycles: baseRes.Cycles, LatencyNorm: 1, EnergyNorm: 1,
	}}

	// Stage 1: every (codec, level) pair on the selected layer.
	orig, err := snapshotSelected(m)
	if err != nil {
		return nil, err
	}
	for _, c := range codecs.All() {
		for _, level := range c.Levels() {
			stream, err := c.Compress(orig, level)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s level %g: %w", m.Name, c.Name(), level, err)
			}
			bits, err := c.CompressedBits(stream, opts.Storage)
			if err != nil {
				return nil, err
			}
			approx, err := c.Decompress(stream)
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
			specs, err := accel.SpecsFromModelCodec(m, map[string]accel.CodecSpec{
				m.SelectedLayer: {Bits: bits, Count: len(orig)},
			})
			if err != nil {
				return nil, err
			}
			res, err := sim.SimulateModelContext(ctx, m.Name, specs)
			if err != nil {
				return nil, err
			}
			points = append(points, MixedPoint{
				Model:       m.Name,
				Config:      fmt.Sprintf("%s-%g", c.Name(), level),
				Codec:       c.Name(),
				Level:       level,
				Layers:      1,
				WeightedCR:  core.WeightedCR(float64(32*len(orig))/float64(bits), len(orig), m.TotalParams()),
				Accuracy:    acc,
				Cycles:      res.Cycles,
				LatencyNorm: float64(res.Cycles) / float64(baseRes.Cycles),
				EnergyNorm:  res.Energy.Total() / baseRes.Energy.Total(),
			})
		}
	}
	if err := m.SetSelectedWeights(orig); err != nil {
		return nil, err
	}

	// Stage 2: greedy mixed-codec plans over all compressible layers. The
	// planner mutates every candidate layer, so snapshot them all. Each
	// LeNet-5 trial is scored through the graph's prefix memo, which
	// re-runs only the layers from the first changed one onward.
	saved := map[string][]float64{}
	for _, l := range layerParamTensors(m.Graph) {
		w, err := m.LayerWeights(l.Name())
		if err != nil {
			return nil, err
		}
		saved[l.Name()] = w
	}
	restoreAll := func() error {
		for _, l := range layerParamTensors(m.Graph) {
			if err := m.SetLayerWeights(l.Name(), saved[l.Name()]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, budget := range opts.mixedBudgets() {
		popts := planner.DefaultOptions()
		popts.Codecs = codecs.All()
		popts.MaxAccuracyDrop = budget
		popts.MaxEvals = opts.mixedEvals()
		popts.Metrics = opts.Obs.M()
		plan, err := planner.Greedy(m, func() (float64, error) { return ev.fineAccuracy(m) }, popts)
		if err != nil {
			return nil, err
		}
		compressed := make(map[string]accel.CodecSpec, len(plan.Assignments))
		for _, a := range plan.Assignments {
			compressed[a.Layer] = accel.CodecSpec{Bits: a.Bits, Count: a.Params}
		}
		specs, err := accel.SpecsFromModelCodec(m, compressed)
		if err != nil {
			return nil, err
		}
		res, err := sim.SimulateModelContext(ctx, m.Name, specs)
		if err != nil {
			return nil, err
		}
		points = append(points, MixedPoint{
			Model:       m.Name,
			Config:      fmt.Sprintf("plan-%g", budget),
			Codec:       "mixed",
			Budget:      budget,
			Layers:      len(plan.Assignments),
			WeightedCR:  plan.WeightedCR,
			Accuracy:    plan.Accuracy,
			Cycles:      res.Cycles,
			LatencyNorm: float64(res.Cycles) / float64(baseRes.Cycles),
			EnergyNorm:  res.Energy.Total() / baseRes.Energy.Total(),
		})
		if err := restoreAll(); err != nil {
			return nil, err
		}
	}
	for i, on := range paretoFront(points, mixedDominates) {
		points[i].Pareto = on
	}
	return points, nil
}

// mixedDominates reports whether q dominates p: at least as good on
// every axis — accuracy and weighted CR high, latency and energy low —
// and strictly better on at least one. mixedModel passes one model's
// points, so every pair is comparable.
func mixedDominates(q, p MixedPoint) bool {
	if q.Accuracy < p.Accuracy || q.WeightedCR < p.WeightedCR ||
		q.LatencyNorm > p.LatencyNorm || q.EnergyNorm > p.EnergyNorm {
		return false
	}
	return q.Accuracy > p.Accuracy || q.WeightedCR > p.WeightedCR ||
		q.LatencyNorm < p.LatencyNorm || q.EnergyNorm < p.EnergyNorm
}
