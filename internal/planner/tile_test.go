package planner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/models"
)

func tileSpecs(t testing.TB, delta float64) []accel.LayerSpec {
	t.Helper()
	return modelSpecs(t, models.LeNet5, delta)
}

// modelSpecs builds a model at seed 2020 and its layer specs, with the
// selected layer compressed at delta (delta < 0: uncompressed).
func modelSpecs(t testing.TB, build func(int64) (*models.Model, error), delta float64) []accel.LayerSpec {
	t.Helper()
	m, err := build(2020)
	if err != nil {
		t.Fatal(err)
	}
	var compressed map[string]*core.Compressed
	if delta >= 0 {
		w, _ := m.SelectedWeights()
		c, err := core.CompressPct(w, delta)
		if err != nil {
			t.Fatal(err)
		}
		compressed = map[string]*core.Compressed{m.SelectedLayer: c}
	}
	specs, err := accel.SpecsFromModel(m, compressed, core.DefaultStorage)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestPlanTilesNeverRegresses: every per-layer choice must cost at most
// the capacity-derived baseline — the baseline itself is in the
// candidate grid, so the search can always keep it.
func TestPlanTilesNeverRegresses(t *testing.T) {
	specs := tileSpecs(t, 15)
	tiled, plan, err := PlanTiles(accel.DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiled) != len(specs) || len(plan.Choices) != len(specs) {
		t.Fatalf("tile pass dropped layers: %d specs, %d tiled, %d choices",
			len(specs), len(tiled), len(plan.Choices))
	}
	for _, c := range plan.Choices {
		if c.Cycles > c.BaseCycles {
			t.Errorf("layer %s: chosen tiling %d rounds costs %d cycles > baseline %d",
				c.Layer, c.Rounds, c.Cycles, c.BaseCycles)
		}
		if c.Rounds < c.BaseRounds {
			t.Errorf("layer %s: chose %d rounds below the capacity minimum %d",
				c.Layer, c.Rounds, c.BaseRounds)
		}
	}
	if plan.Cycles > plan.BaseCycles {
		t.Errorf("plan total %d cycles > baseline %d", plan.Cycles, plan.BaseCycles)
	}
}

// TestPlanTilesEndToEnd: simulating the tiled specs in overlap mode
// reproduces the plan's predicted total — the pass is exact simulation,
// not a detached cost model.
func TestPlanTilesEndToEnd(t *testing.T) {
	specs := tileSpecs(t, 15)
	tiled, plan, err := PlanTiles(accel.DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.DefaultConfig()
	cfg.Overlap = true
	sim, err := accel.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateModel("LeNet-5", tiled)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != plan.Cycles {
		t.Errorf("simulated tiled model: %d cycles, plan predicted %d", res.Cycles, plan.Cycles)
	}
}

// TestPlanTilesDeterministic: two runs over the same inputs produce the
// same plan.
func TestPlanTilesDeterministic(t *testing.T) {
	specs := tileSpecs(t, 15)
	_, a, err := PlanTiles(accel.DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := PlanTiles(accel.DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("tile pass not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestPlanTilesDoesNotMutateInput: the pass returns fresh specs and
// leaves its inputs untouched.
func TestPlanTilesDoesNotMutateInput(t *testing.T) {
	specs := tileSpecs(t, 15)
	orig := append([]accel.LayerSpec(nil), specs...)
	if _, _, err := PlanTiles(accel.DefaultConfig(), specs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, orig) {
		t.Error("tile pass mutated its input specs")
	}
}

// TestPlanTilesWorkerInvariant: the layer fan-out is invisible in the
// result. Specs and plan are deeply equal at every worker count, and an
// invalid layer in the middle of the list fails the pass with an error
// that names it and wraps the simulator's cause, whichever sibling
// finishes first.
func TestPlanTilesWorkerInvariant(t *testing.T) {
	cases := []struct {
		name  string
		build func(int64) (*models.Model, error)
		delta float64
	}{
		{"LeNet-5 uncompressed", models.LeNet5, -1},
		{"LeNet-5 delta 15", models.LeNet5, 15},
		{"AlexNet delta 15", models.AlexNet, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := modelSpecs(t, tc.build, tc.delta)
			cfg := accel.DefaultConfig()
			wantSpecs, wantPlan, err := planTiles(context.Background(), cfg, specs, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				gotSpecs, gotPlan, err := planTiles(context.Background(), cfg, specs, w)
				if err != nil {
					t.Fatalf("workers %d: %v", w, err)
				}
				if !reflect.DeepEqual(gotSpecs, wantSpecs) {
					t.Errorf("workers %d: tiled specs differ from the serial pass", w)
				}
				if !reflect.DeepEqual(gotPlan, wantPlan) {
					t.Errorf("workers %d: plan differs from the serial pass:\n%+v\n%+v", w, gotPlan, wantPlan)
				}
			}

			bad := specs[len(specs)/2]
			bad.Name = "bad_layer"
			bad.Compressed, bad.WeightCount = true, 0
			cause := bad.Validate()
			if cause == nil {
				t.Fatal("test spec unexpectedly valid")
			}
			broken := append([]accel.LayerSpec(nil), specs...)
			broken[len(broken)/2] = bad
			for _, w := range []int{1, 2, 8} {
				_, _, err := planTiles(context.Background(), cfg, broken, w)
				if err == nil {
					t.Fatalf("workers %d: invalid layer accepted", w)
				}
				if !strings.Contains(err.Error(), bad.Name) {
					t.Errorf("workers %d: error does not name the layer: %v", w, err)
				}
				if u := errors.Unwrap(err); u == nil || u.Error() != cause.Error() {
					t.Errorf("workers %d: error %v does not wrap the cause %v", w, err, cause)
				}
			}
		})
	}
}

// TestPlanTilesAllocBound pins the tile pass's allocation on LeNet-5.
// Every candidate simulation checks a scratch out of the simulator's
// pool and every extra worker builds its own, so the bound holds only
// because a scratch is cheap: the NoC injection queues hold packets,
// not flits.
func TestPlanTilesAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation")
	}
	specs := tileSpecs(t, 15)
	cfg := accel.DefaultConfig()
	if _, _, err := PlanTiles(cfg, specs); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := PlanTiles(cfg, specs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	const budget = 1 << 20
	if perOp > budget {
		t.Fatalf("LeNet-5 PlanTiles allocates %d B/op, budget %d", perOp, budget)
	}
	t.Logf("LeNet-5 PlanTiles: %d B/op", perOp)
}

// BenchmarkPlanTiles measures the tile pass on LeNet-5 and, without
// -short, on VGG-16 (delta 15 on the selected layer).
func BenchmarkPlanTiles(b *testing.B) {
	cases := []struct {
		name  string
		build func(int64) (*models.Model, error)
	}{
		{"LeNet-5", models.LeNet5},
		{"VGG-16", models.VGG16},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			if bc.name != "LeNet-5" && testing.Short() {
				b.Skip("VGG-16 tile pass is slow; run without -short")
			}
			specs := modelSpecs(b, bc.build, 15)
			cfg := accel.DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := PlanTiles(cfg, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
