package experiments

import (
	"context"
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/planner"
)

// OverlapPoint is one configuration of the weight-streaming sweep: a
// model at one compression level, simulated under one of three
// schedules — the serial ship-then-compute baseline, the streaming
// overlap pipeline, and overlap with the planner's tile-shape pass.
type OverlapPoint struct {
	Model string
	// Delta is the segment tolerance percent of the selected layer;
	// -1 marks the uncompressed rows.
	Delta float64
	// CR is the selected layer's stream compression ratio (1 when
	// uncompressed).
	CR   float64
	Mode string // "serial", "overlap", "overlap+tile"
	// Rounds is the total tiling rounds over all layers (the tile pass
	// raises it when finer tiles win).
	Rounds      int
	Cycles      uint64
	DecodeStall uint64  // cycles MACs idled waiting on the decompression unit
	EnergyUJ    float64 // total energy in microjoules
	// Speedup is the serial cycles at the same compression level divided
	// by this point's cycles (1 for the serial rows themselves).
	Speedup float64
	// Pareto marks points on the per-model (CR, cycles, energy) frontier.
	Pareto bool
}

// OverlapSweep quantifies what the streaming pipeline buys at each
// compression ratio: for every model and tolerance level it simulates
// the serial schedule, the overlap schedule, and overlap with the
// tile-shape pass, reporting latency, decode stalls and energy. No
// accuracy evaluation is involved — the sweep is pure simulation, so it
// runs the full grid in seconds.
//
// Like MixedCodec, the default model set is the LeNet-scale group;
// request the giants explicitly via Options.Models. Models fan out over
// the worker pool and results are collected by index, so every -workers
// value yields byte-identical CSVs.
func OverlapSweep(opts Options) ([]OverlapPoint, error) {
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
	serialCfg := opts.Accel
	serialCfg.Overlap = false
	overlapCfg := opts.Accel
	overlapCfg.Overlap = true
	serial, err := accel.NewSimulator(serialCfg)
	if err != nil {
		return nil, err
	}
	overlap, err := accel.NewSimulator(overlapCfg)
	if err != nil {
		return nil, err
	}
	for _, s := range []*accel.Simulator{serial, overlap} {
		s.SetWorkers(opts.Workers)
		s.SetObserver(opts.Obs)
	}
	perModel, err := parallel.Map(opts.ctx(), opts.workers(), len(builders),
		func(ctx context.Context, bi int) ([]OverlapPoint, error) {
			return checkpointed(opts, "overlap/"+builders[bi].Name, func() ([]OverlapPoint, error) {
				return overlapModel(ctx, builders[bi], serial, overlap, serialCfg, opts)
			})
		})
	if err != nil {
		return nil, err
	}
	var points []OverlapPoint
	for _, mp := range perModel {
		points = append(points, mp...)
	}
	return points, nil
}

// overlapDeltas is the compression grid of the sweep: the uncompressed
// model plus the model's tolerance ladder.
func (o Options) overlapDeltas(model string) []float64 {
	if o.Fast {
		return []float64{-1, 5, 15}
	}
	return append([]float64{-1}, DeltaGrid(model)...)
}

// overlapModel runs the three-schedule sweep for one model; ctx bounds
// its simulations (the tile search stays unbounded).
func overlapModel(ctx context.Context, b models.Builder, serial, overlap *accel.Simulator, cfg accel.Config, opts Options) ([]OverlapPoint, error) {
	m, err := b.Build(opts.Seed)
	if err != nil {
		return nil, err
	}
	var points []OverlapPoint
	for _, delta := range opts.overlapDeltas(m.Name) {
		cr := 1.0
		var compressed map[string]*core.Compressed
		if delta >= 0 {
			w, err := m.SelectedWeights()
			if err != nil {
				return nil, err
			}
			c, err := core.CompressPct(w, delta)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s delta %g: %w", m.Name, delta, err)
			}
			compressed = map[string]*core.Compressed{m.SelectedLayer: c}
			cr = c.CompressionRatio(opts.Storage)
		}
		specs, err := accel.SpecsFromModel(m, compressed, opts.Storage)
		if err != nil {
			return nil, err
		}
		tiled, _, err := planner.PlanTiles(cfg, specs)
		if err != nil {
			return nil, err
		}
		rs, err := serial.SimulateModelContext(ctx, m.Name, specs)
		if err != nil {
			return nil, err
		}
		ro, err := overlap.SimulateModelContext(ctx, m.Name, specs)
		if err != nil {
			return nil, err
		}
		rt, err := overlap.SimulateModelContext(ctx, m.Name, tiled)
		if err != nil {
			return nil, err
		}
		for _, pt := range []struct {
			mode string
			res  *accel.Result
		}{{"serial", rs}, {"overlap", ro}, {"overlap+tile", rt}} {
			rounds := 0
			for _, lr := range pt.res.Layers {
				rounds += lr.Rounds
			}
			points = append(points, OverlapPoint{
				Model:       m.Name,
				Delta:       delta,
				CR:          cr,
				Mode:        pt.mode,
				Rounds:      rounds,
				Cycles:      pt.res.Cycles,
				DecodeStall: pt.res.Latency.DecodeStall,
				EnergyUJ:    pt.res.Energy.Total() / 1e6,
				Speedup:     float64(rs.Cycles) / float64(pt.res.Cycles),
			})
		}
	}
	for i, on := range paretoFront(points, overlapDominates) {
		points[i].Pareto = on
	}
	return points, nil
}

// overlapDominates reports whether q dominates p: same model, at least
// as good on CR (high), cycles and energy (low), and strictly better on
// at least one.
func overlapDominates(q, p OverlapPoint) bool {
	if q.Model != p.Model {
		return false
	}
	if q.CR < p.CR || q.Cycles > p.Cycles || q.EnergyUJ > p.EnergyUJ {
		return false
	}
	return q.CR > p.CR || q.Cycles < p.Cycles || q.EnergyUJ < p.EnergyUJ
}
