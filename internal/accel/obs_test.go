package accel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/obs"
)

func lenetSpecs(t testing.TB) (string, []LayerSpec) {
	t.Helper()
	m, err := models.LeNet5(1)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := SpecsFromModel(m, nil, core.DefaultStorage)
	if err != nil {
		t.Fatal(err)
	}
	return m.Name, specs
}

// lenetTrace runs a LeNet simulation with full observability and returns
// the exported trace JSON, metrics text, and the result.
func lenetTrace(t testing.TB, workers int) (string, string, *Result) {
	t.Helper()
	name, specs := lenetSpecs(t)
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(workers)
	o := obs.New()
	sim.SetObserver(o)
	res, err := sim.SimulateModel(name, specs)
	if err != nil {
		t.Fatal(err)
	}
	var tr, mt strings.Builder
	if err := o.Trace.WriteChromeJSON(&tr); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics.WriteText(&mt); err != nil {
		t.Fatal(err)
	}
	return tr.String(), mt.String(), res
}

// TestTraceIdenticalAcrossWorkers pins the determinism contract: the
// exported trace and metrics are byte-identical whether layers are
// simulated serially or on four workers.
func TestTraceIdenticalAcrossWorkers(t *testing.T) {
	tr1, mt1, res1 := lenetTrace(t, 1)
	tr4, mt4, res4 := lenetTrace(t, 4)
	if res1.Cycles != res4.Cycles {
		t.Fatalf("cycles diverge across workers: %d vs %d", res1.Cycles, res4.Cycles)
	}
	if tr1 != tr4 {
		t.Fatal("trace export diverges between -workers 1 and 4")
	}
	if mt1 != mt4 {
		t.Fatalf("metrics export diverges between -workers 1 and 4:\n--- 1:\n%s\n--- 4:\n%s", mt1, mt4)
	}
	if tr1 == `{"traceEvents":[]}` {
		t.Fatal("trace is empty — hooks not firing")
	}
	for _, frag := range []string{spanDRAMRead, spanMAC, `"name":"eject"`, `"cat":"layer"`, `"name":"pkt"`} {
		if !strings.Contains(tr1, frag) {
			t.Fatalf("trace missing %q", frag)
		}
	}
	for _, frag := range []string{"accel_cycles_memory", "accel_noc_flits", "noc_packet_latency_cycles", "noc_router_traversals"} {
		if !strings.Contains(mt1, frag) {
			t.Fatalf("metrics missing %q:\n%s", frag, mt1)
		}
	}
}

// TestDisabledObserverAllocs pins the disabled-path overhead at the
// model level: a warm simulator without an observer must allocate no
// more than the pre-instrumentation baseline (pooled scratch plus
// result assembly), and the count must not grow with instrumentation
// compiled in.
func TestDisabledObserverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	name, specs := lenetSpecs(t)
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	iter := func() {
		if _, err := sim.SimulateModel(name, specs); err != nil {
			t.Fatal(err)
		}
	}
	iter() // warm the scratch pool
	allocs := testing.AllocsPerRun(5, iter)
	// Steady-state budget: parallel.Map bookkeeping, per-layer result
	// assembly, and Result aggregation. The instrumentation itself must
	// contribute nothing when disabled.
	const budget = 400
	if allocs > budget {
		t.Fatalf("disabled-observer SimulateModel allocates %.0f allocs/op, budget %d", allocs, budget)
	}
}

// BenchmarkSimulateLeNetObs is BenchmarkSimulateLeNet with tracing and
// metrics enabled — the on/off pair pinning the enabled-path overhead.
func BenchmarkSimulateLeNetObs(b *testing.B) {
	name, specs := lenetSpecs(b)
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs.New()
		sim.SetObserver(o)
		if _, err := sim.SimulateModel(name, specs); err != nil {
			b.Fatal(err)
		}
	}
}
