package planner

import (
	"context"
	"fmt"

	"repro/internal/accel"
	"repro/internal/parallel"
)

// tileMultiples is the candidate grid of the tile-shape search: each
// layer's capacity-derived round count is scaled by these factors and
// the cheapest schedule wins. The grid is small because the latency
// curve over tile count is unimodal in practice — finer tiles shrink
// the per-tile decode and fetch time the double buffer must hide, but
// add per-burst DRAM request overhead and pipeline fill; past the
// sweet spot every extra split only adds overhead.
var tileMultiples = []int{1, 2, 3, 4, 6, 8}

// TileChoice records the tile-shape decision for one layer.
type TileChoice struct {
	Layer string
	// BaseRounds is the capacity-derived tiling (the fewest rounds whose
	// working set fits the scratchpad double buffer); Rounds is the
	// chosen tiling, >= BaseRounds.
	BaseRounds int
	Rounds     int
	// BaseCycles and Cycles are the overlap-mode layer latencies at
	// BaseRounds and Rounds.
	BaseCycles uint64
	Cycles     uint64
}

// TilePlan is the result of the overlap-aware tile pass.
type TilePlan struct {
	Choices []TileChoice
	// BaseCycles and Cycles sum the per-layer latencies before and after
	// the pass (layer-sequential, like accel.Result.Cycles).
	BaseCycles uint64
	Cycles     uint64
}

// PlanTiles is the overlap-aware tile-shape pass: for every layer it
// searches round counts at and above the scratchpad-capacity minimum —
// the shapes that fit within the LocalMemBytes double-buffer slack —
// simulating each candidate in streaming-overlap mode and keeping the
// cheapest. Ties go to the coarsest tiling (fewer rounds means fewer
// DRAM bursts and less extrapolation error).
//
// Layers are searched concurrently, one work item per layer on
// runtime.GOMAXPROCS(0) workers, and reduced in layer order, so the
// result is identical to a serial search.
//
// The returned specs are the inputs with RoundsOverride set to each
// layer's winning tile count; feed them to a Simulator with
// Config.Overlap enabled. The search itself is exact simulation, not a
// model, so it inherits the simulator's determinism.
func PlanTiles(cfg accel.Config, specs []accel.LayerSpec) ([]accel.LayerSpec, *TilePlan, error) {
	return planTiles(context.Background(), cfg, specs, parallel.Workers(0))
}

// planTiles is PlanTiles on a given worker count. A failing layer
// cancels ctx for its siblings, and the error of the lowest-indexed
// failing layer is returned.
func planTiles(ctx context.Context, cfg accel.Config, specs []accel.LayerSpec, workers int) ([]accel.LayerSpec, *TilePlan, error) {
	cfg.Overlap = true
	sim, err := accel.NewSimulator(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("planner: tile pass: %w", err)
	}
	choices, err := parallel.Map(ctx, workers, len(specs), func(ctx context.Context, i int) (TileChoice, error) {
		return tileLayer(ctx, sim, specs[i])
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]accel.LayerSpec, len(specs))
	plan := &TilePlan{Choices: choices}
	for i, choice := range choices {
		spec := specs[i]
		spec.RoundsOverride = 0
		if choice.Rounds > choice.BaseRounds {
			spec.RoundsOverride = choice.Rounds
		}
		out[i] = spec
		plan.BaseCycles += choice.BaseCycles
		plan.Cycles += choice.Cycles
	}
	return out, plan, nil
}

// tileLayer simulates one layer at its capacity-derived tiling and at
// every finer multiple, keeping the first strictly cheapest (so ties go
// to the coarsest tiling).
func tileLayer(ctx context.Context, sim *accel.Simulator, spec accel.LayerSpec) (TileChoice, error) {
	spec.RoundsOverride = 0
	base, err := sim.SimulateLayerContext(ctx, spec)
	if err != nil {
		return TileChoice{}, fmt.Errorf("planner: tile pass on %s: %w", spec.Name, err)
	}
	choice := TileChoice{
		Layer:      spec.Name,
		BaseRounds: base.Rounds,
		Rounds:     base.Rounds,
		BaseCycles: base.Cycles,
		Cycles:     base.Cycles,
	}
	for _, mult := range tileMultiples[1:] {
		spec.RoundsOverride = base.Rounds * mult
		lr, err := sim.SimulateLayerContext(ctx, spec)
		if err != nil {
			return TileChoice{}, fmt.Errorf("planner: tile pass on %s x%d: %w", spec.Name, mult, err)
		}
		if lr.Cycles < choice.Cycles {
			choice.Rounds = lr.Rounds
			choice.Cycles = lr.Cycles
		}
	}
	return choice, nil
}
