package noc

import (
	"testing"

	"repro/internal/faults"
)

// faultCfg returns a 4x4 mesh with the given fault model installed.
func faultCfg(m faults.Model) Config {
	cfg := DefaultConfig()
	cfg.Faults = m
	return cfg
}

// runTraffic injects a deterministic all-to-some traffic pattern and
// drains the network, returning the final stats.
func runTraffic(t *testing.T, cfg Config, packets, flits int) Stats {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.Nodes()
	for i := 0; i < packets; i++ {
		src := i % n
		dst := (i*7 + 3) % n
		if dst == src {
			dst = (dst + 1) % n
		}
		if err := nw.Inject(Packet{Src: src, Dst: dst, Flits: flits}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := nw.RunUntilIdle(5_000_000); !ok {
		t.Fatal("network did not drain")
	}
	return nw.Stats()
}

// TestZeroRateMatchesFaultFree pins the acceptance criterion that a
// fault model with every rate at zero is byte-identical to a fault-free
// run: same cycle count, traversals and latency sum.
func TestZeroRateMatchesFaultFree(t *testing.T) {
	base := runTraffic(t, DefaultConfig(), 200, 4)
	withModel := runTraffic(t, faultCfg(faults.Model{Seed: 1234}), 200, 4)
	if base != withModel {
		t.Fatalf("zero-rate fault run diverged from fault-free:\nbase  %+v\nfault %+v", base, withModel)
	}
	if base.CorruptFlits != 0 || base.RetransmittedPackets != 0 || base.Dropped() != 0 {
		t.Fatalf("fault counters nonzero on fault-free run: %+v", base)
	}
}

// TestRetransmissionRecoversAllFaults: up to (and well past) the 1e-3
// flit corruption rate of the acceptance criteria, NACK + bounded retry
// must deliver every packet — no losses — and the recovery must be
// visible in the stats.
func TestRetransmissionRecoversAllFaults(t *testing.T) {
	for _, rate := range []float64{1e-3, 1e-2} {
		st := runTraffic(t, faultCfg(faults.Model{Seed: 7, LinkFlitRate: rate}), 400, 6)
		if st.PacketsOut != st.PacketsIn {
			t.Errorf("rate %v: %d/%d packets delivered", rate, st.PacketsOut, st.PacketsIn)
		}
		if st.Dropped() != 0 {
			t.Errorf("rate %v: %d packets lost", rate, st.Dropped())
		}
		if st.CorruptFlits == 0 {
			t.Errorf("rate %v: no corruption events fired", rate)
		}
		if st.RetransmittedPackets == 0 {
			t.Errorf("rate %v: corruption fired but nothing was retransmitted", rate)
		}
	}
}

// TestRetransmissionCostsShowUp: recovered faults must cost cycles and
// traffic relative to the fault-free run (accel picks these up as
// latency and energy).
func TestRetransmissionCostsShowUp(t *testing.T) {
	base := runTraffic(t, DefaultConfig(), 400, 6)
	fault := runTraffic(t, faultCfg(faults.Model{Seed: 7, LinkFlitRate: 5e-2}), 400, 6)
	if fault.FlitsInjected <= base.FlitsInjected {
		t.Errorf("retransmission injected no extra flits: %d vs %d", fault.FlitsInjected, base.FlitsInjected)
	}
	if fault.LatencySum <= base.LatencySum {
		t.Errorf("recovery cost no latency: %d vs %d", fault.LatencySum, base.LatencySum)
	}
	if fault.LinkTraverse <= base.LinkTraverse {
		t.Errorf("retransmission crossed no extra links: %d vs %d", fault.LinkTraverse, base.LinkTraverse)
	}
}

// TestFaultRunsDeterministic: identical (seed, rate) give identical
// stats; a different seed moves the corruption pattern.
func TestFaultRunsDeterministic(t *testing.T) {
	m := faults.Model{Seed: 99, LinkFlitRate: 2e-2}
	a := runTraffic(t, faultCfg(m), 300, 5)
	b := runTraffic(t, faultCfg(m), 300, 5)
	if a != b {
		t.Fatalf("same (seed, rate) diverged:\na %+v\nb %+v", a, b)
	}
	m.Seed = 100
	c := runTraffic(t, faultCfg(m), 300, 5)
	if a == c {
		t.Error("different seeds produced identical runs")
	}
}

// TestRetryBudgetExhaustion: at an absurd corruption rate with a budget
// of one retry, packets must be counted lost — and the network must
// still drain rather than hang.
func TestRetryBudgetExhaustion(t *testing.T) {
	cfg := faultCfg(faults.Model{Seed: 3, LinkFlitRate: 0.9})
	cfg.MaxRetries = 1
	st := runTraffic(t, cfg, 100, 6)
	if st.LostPackets == 0 {
		t.Error("near-certain corruption with one retry lost nothing")
	}
	if st.PacketsOut+st.Dropped() != st.PacketsIn {
		t.Errorf("packet conservation broken: out %d + dropped %d != in %d",
			st.PacketsOut, st.Dropped(), st.PacketsIn)
	}
}

// TestDeadLinkAvoidance: with the only minimal-path link of a flow cut,
// packets detour and still arrive.
func TestDeadLinkAvoidance(t *testing.T) {
	// 4x4 mesh, XY routing: 4 -> 7 goes east along row 1 through link 5->6.
	cfg := faultCfg(faults.Model{DeadLinks: []faults.Link{{From: 5, To: 6}}})
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := nw.Inject(Packet{Src: 4, Dst: 7, Flits: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := nw.RunUntilIdle(200_000); !ok {
		t.Fatal("network did not drain around the dead link")
	}
	st := nw.Stats()
	if st.PacketsOut != st.PacketsIn {
		t.Fatalf("%d/%d packets survived the dead link", st.PacketsOut, st.PacketsIn)
	}
	if st.DeadLinkAvoids == 0 {
		t.Error("no avoidance decisions recorded")
	}
	if st.Dropped() != 0 {
		t.Errorf("%d packets dropped despite a live detour", st.Dropped())
	}
}

// TestUnroutableSourceKilled: a source whose every outbound link is dead
// cannot make progress; its packets must be killed as unroutable and the
// network must drain.
func TestUnroutableSourceKilled(t *testing.T) {
	// Corner node 0 has exactly two outbound links: 0->1 (east) and 0->4
	// (south). Cut both.
	cfg := faultCfg(faults.Model{DeadLinks: []faults.Link{{From: 0, To: 1}, {From: 0, To: 4}}})
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := nw.Inject(Packet{Src: 0, Dst: 15, Flits: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := nw.RunUntilIdle(100_000); !ok {
		t.Fatal("network did not drain killed packets")
	}
	st := nw.Stats()
	if st.UnroutablePackets != 5 {
		t.Errorf("expected 5 unroutable packets, got %d", st.UnroutablePackets)
	}
	if st.PacketsOut != 0 {
		t.Errorf("%d packets escaped a fully cut-off source", st.PacketsOut)
	}
	if nw.DroppedPackets() != 5 {
		t.Errorf("DroppedPackets() = %d, want 5", nw.DroppedPackets())
	}
}

// TestUnreachableDestinationKilled: a destination whose every inbound
// link is dead is unreachable from everywhere; its packets must be
// killed as unroutable (instead of bouncing among live routers forever)
// while flows between live nodes keep working.
func TestUnreachableDestinationKilled(t *testing.T) {
	// Cut both inbound links of corner node 0 (1->0 and 4->0); every
	// sender still has live outbound links.
	cfg := faultCfg(faults.Model{DeadLinks: []faults.Link{{From: 1, To: 0}, {From: 4, To: 0}}})
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := nw.Inject(Packet{Src: 15, Dst: 0, Flits: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// A live flow sharing routers with the doomed one.
	if err := nw.Inject(Packet{Src: 12, Dst: 3, Flits: 4}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntilIdle(1_000_000); !ok {
		t.Fatal("packets to an unreachable destination were never killed; network did not drain")
	}
	st := nw.Stats()
	if st.UnroutablePackets != 4 {
		t.Errorf("expected 4 unroutable kills, got %d", st.UnroutablePackets)
	}
	if st.PacketsOut != 1 {
		t.Errorf("expected exactly the live flow delivered, got %d", st.PacketsOut)
	}
}

// TestDeadLinkValidation: dead links must join mesh neighbors.
func TestDeadLinkValidation(t *testing.T) {
	for _, links := range [][]faults.Link{
		{{From: 0, To: 99}}, // outside the mesh
		{{From: 0, To: 5}},  // diagonal
		{{From: 0, To: 2}},  // same row, two hops
		{{From: -1, To: 0}}, // negative
		{{From: 3, To: 3}},  // self-loop
	} {
		cfg := faultCfg(faults.Model{DeadLinks: links})
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted dead links %v", links)
		}
	}
	cfg := faultCfg(faults.Model{DeadLinks: []faults.Link{{From: 0, To: 1}, {From: 1, To: 0}}})
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected sound dead links: %v", err)
	}
	cfg = faultCfg(faults.Model{})
	cfg.MaxRetries = -1
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a negative retry budget")
	}
}
