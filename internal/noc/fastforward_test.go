package noc

import (
	"reflect"
	"testing"

	"repro/internal/faults"
)

// faultyConfig is the paper's mesh with transient link faults, so
// equivalence tests cover the retransmission path too.
func faultyConfig() Config {
	cfg := DefaultConfig()
	cfg.Faults = faults.Model{Seed: 7, LinkFlitRate: 0.01}
	return cfg
}

// burst injects a deterministic traffic pattern.
func burst(t testing.TB, nw *Network, round int) {
	t.Helper()
	for src := 0; src < nw.Nodes(); src += 3 {
		dst := (src + 5 + round) % nw.Nodes()
		if dst == src {
			dst = (src + 1) % nw.Nodes()
		}
		if _, err := nw.SendMessage(src, dst, 4+round%7, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdvanceIdleEquivalence drives two identical networks through the
// same bursts separated by idle gaps: one crosses the gaps with
// AdvanceIdle, the other steps through them cycle by cycle. Stats,
// per-router heatmaps, and the full delivery streams must be identical.
func TestAdvanceIdleEquivalence(t *testing.T) {
	run := func(fastForward bool) (Stats, []uint64, []Delivery) {
		nw, err := New(faultyConfig())
		if err != nil {
			t.Fatal(err)
		}
		var deliveries []Delivery
		nw.SetSink(func(d Delivery) { deliveries = append(deliveries, d) })
		for round := 0; round < 4; round++ {
			burst(t, nw, round)
			if _, ok := nw.RunUntilIdle(100_000); !ok {
				t.Fatal("did not drain")
			}
			// Idle gap between bursts: the workload goes quiet for 1000
			// cycles, as between DRAM-bound layers in the accelerator.
			target := nw.Cycle() + 1000
			if fastForward {
				if !nw.AdvanceIdle(target) {
					t.Fatal("AdvanceIdle refused an idle network")
				}
			} else {
				for nw.Cycle() < target {
					nw.Step()
				}
			}
		}
		return nw.Stats(), nw.PerRouterTraversals(), deliveries
	}

	fastStats, fastHeat, fastDel := run(true)
	slowStats, slowHeat, slowDel := run(false)
	if fastStats != slowStats {
		t.Errorf("stats diverge:\nfast %+v\nslow %+v", fastStats, slowStats)
	}
	if !reflect.DeepEqual(fastHeat, slowHeat) {
		t.Errorf("per-router heatmap diverges:\nfast %v\nslow %v", fastHeat, slowHeat)
	}
	if !reflect.DeepEqual(fastDel, slowDel) {
		t.Errorf("delivery streams diverge: fast %d vs slow %d deliveries", len(fastDel), len(slowDel))
	}
}

// TestAdvanceIdleRefusals: a busy network and a non-advancing target
// are both no-ops.
func TestAdvanceIdleRefusals(t *testing.T) {
	nw, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if nw.AdvanceIdle(nw.Cycle()) {
		t.Error("advanced to the current cycle")
	}
	if err := nw.Inject(Packet{Src: 0, Dst: 5, Flits: 3}); err != nil {
		t.Fatal(err)
	}
	if nw.AdvanceIdle(nw.Cycle() + 100) {
		t.Error("advanced a busy network")
	}
	if nw.Cycle() != 0 {
		t.Errorf("cycle moved to %d on refused advances", nw.Cycle())
	}
	if _, ok := nw.RunUntilIdle(10_000); !ok {
		t.Fatal("did not drain")
	}
	if !nw.AdvanceIdle(nw.Cycle() + 100) {
		t.Error("refused an idle network")
	}
}

// TestResetEquivalence: a reset, previously used network must replay a
// workload exactly like a freshly constructed one — same stats, same
// heatmap, same deliveries, including under faults and multiple VCs.
func TestResetEquivalence(t *testing.T) {
	run := func(nw *Network) (Stats, []uint64, []Delivery) {
		var deliveries []Delivery
		nw.SetSink(func(d Delivery) { deliveries = append(deliveries, d) })
		for round := 0; round < 3; round++ {
			burst(t, nw, round)
			if _, ok := nw.RunUntilIdle(100_000); !ok {
				t.Fatal("did not drain")
			}
		}
		return nw.Stats(), nw.PerRouterTraversals(), deliveries
	}

	fresh, err := New(faultyConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantStats, wantHeat, wantDel := run(fresh)

	pooled, err := New(faultyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the network with an unrelated workload, then reset and replay.
	for src := 1; src < pooled.Nodes(); src++ {
		if _, err := pooled.SendMessage(src, 0, 9, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := pooled.RunUntilIdle(100_000); !ok {
		t.Fatal("did not drain")
	}
	pooled.Reset()
	if !pooled.Idle() || pooled.Cycle() != 0 || pooled.Stats() != (Stats{}) {
		t.Fatal("Reset left residual state")
	}
	gotStats, gotHeat, gotDel := run(pooled)

	if gotStats != wantStats {
		t.Errorf("stats diverge after Reset:\nreset %+v\nfresh %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(gotHeat, wantHeat) {
		t.Errorf("heatmap diverges after Reset")
	}
	if !reflect.DeepEqual(gotDel, wantDel) {
		t.Errorf("deliveries diverge after Reset: %d vs %d", len(gotDel), len(wantDel))
	}
}

// TestIdleCounterBalance: the O(1) Idle flit counter must balance even
// when packets die mid-flight (unroutable kills and retry exhaustion),
// otherwise RunUntilIdle would never report a drained network again.
func TestIdleCounterBalance(t *testing.T) {
	cfg := DefaultConfig()
	// Cut node 5 off completely: packets to it are killed and drained.
	cfg.Faults = faults.Model{DeadLinks: []faults.Link{
		{From: 4, To: 5}, {From: 6, To: 5}, {From: 1, To: 5}, {From: 9, To: 5},
	}}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 16; src++ {
		if src == 5 {
			continue
		}
		if _, err := nw.SendMessage(src, 5, 6, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := nw.RunUntilIdle(1_000_000); !ok {
		t.Fatal("network never drained: flit counter out of balance")
	}
	if !nw.Idle() {
		t.Fatal("Idle() false after drain")
	}
	if got := nw.Stats().UnroutablePackets; got == 0 {
		t.Error("expected unroutable kills in this topology")
	}
}
