package noc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 4, BufferDepth: 4, FlitBits: 64},
		{Width: 1, Height: 1, BufferDepth: 4, FlitBits: 64},
		{Width: 4, Height: 4, BufferDepth: 0, FlitBits: 64},
		{Width: 4, Height: 4, BufferDepth: 4, FlitBits: 0},
		{Width: 4, Height: 4, BufferDepth: 4, FlitBits: 64, MaxPacketFlit: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestNodeAtAndCoord(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	id, err := nw.NodeAt(3, 2)
	if err != nil || id != 11 {
		t.Errorf("NodeAt(3,2) = %d, %v", id, err)
	}
	if _, err := nw.NodeAt(4, 0); err == nil {
		t.Error("off-mesh NodeAt should error")
	}
	x, y := nw.coord(11)
	if x != 3 || y != 2 {
		t.Errorf("coord(11) = (%d,%d)", x, y)
	}
}

func TestXYRouteDirections(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	// From node 5 (1,1).
	cases := []struct {
		dst  int
		want int
	}{
		{6, PortEast},  // (2,1)
		{4, PortWest},  // (0,1)
		{1, PortNorth}, // (1,0)
		{9, PortSouth}, // (1,2)
		{5, PortLocal},
		{10, PortEast}, // (2,2): X first
	}
	for _, c := range cases {
		if got := nw.route(5, c.dst); got != c.want {
			t.Errorf("xyRoute(5,%d) = %s, want %s", c.dst, PortName(got), PortName(c.want))
		}
	}
}

func TestNeighbor(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	nid, nport, ok := nw.neighbor(5, PortEast)
	if !ok || nid != 6 || nport != PortWest {
		t.Errorf("neighbor(5,E) = %d,%s,%v", nid, PortName(nport), ok)
	}
	if _, _, ok := nw.neighbor(0, PortNorth); ok {
		t.Error("node 0 should have no north neighbor")
	}
	if _, _, ok := nw.neighbor(0, PortLocal); ok {
		t.Error("local port has no neighbor")
	}
}

func TestInjectValidation(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	if err := nw.Inject(Packet{Src: -1, Dst: 3, Flits: 1}); err == nil {
		t.Error("negative src should error")
	}
	if err := nw.Inject(Packet{Src: 0, Dst: 99, Flits: 1}); err == nil {
		t.Error("off-mesh dst should error")
	}
	if err := nw.Inject(Packet{Src: 2, Dst: 2, Flits: 1}); err == nil {
		t.Error("self-addressed packet should error")
	}
	if err := nw.Inject(Packet{Src: 0, Dst: 1, Flits: 0}); err == nil {
		t.Error("zero-flit packet should error")
	}
	if err := nw.Inject(Packet{Src: 0, Dst: 1, Flits: 1000}); err == nil {
		t.Error("oversized packet should error")
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	var got []Delivery
	nw.SetSink(func(d Delivery) { got = append(got, d) })
	if err := nw.Inject(Packet{Src: 0, Dst: 15, Flits: 4, Tag: 0xfeed}); err != nil {
		t.Fatal(err)
	}
	cycles, drained := nw.RunUntilIdle(10000)
	if !drained {
		t.Fatal("network did not drain")
	}
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	d := got[0]
	if d.Packet.Tag != 0xfeed || d.Packet.Src != 0 || d.Packet.Dst != 15 {
		t.Errorf("delivery packet = %+v", d.Packet)
	}
	// 0 -> 15 is 6 hops; 4 flits; plus injection/ejection pipeline. The
	// latency must be at least hops + flits and well under the drain time.
	if d.Latency < 10 || d.Latency > 64 {
		t.Errorf("latency = %d cycles, outside sane window", d.Latency)
	}
	if cycles == 0 {
		t.Error("zero cycles elapsed")
	}
	st := nw.Stats()
	if st.PacketsIn != 1 || st.PacketsOut != 1 {
		t.Errorf("stats packets %d/%d", st.PacketsIn, st.PacketsOut)
	}
	if st.FlitsInjected != 4 || st.FlitsEjected != 4 {
		t.Errorf("stats flits %d/%d", st.FlitsInjected, st.FlitsEjected)
	}
	// 6 links per flit.
	if st.LinkTraverse != 24 {
		t.Errorf("link traversals = %d, want 24", st.LinkTraverse)
	}
	// 7 routers per flit (source through destination).
	if st.RouterTraverse != 28 {
		t.Errorf("router traversals = %d, want 28", st.RouterTraverse)
	}
}

func TestAdjacentDelivery(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	count := 0
	nw.SetSink(func(d Delivery) { count++ })
	if err := nw.Inject(Packet{Src: 1, Dst: 2, Flits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntilIdle(100); !ok {
		t.Fatal("did not drain")
	}
	if count != 1 {
		t.Errorf("deliveries = %d", count)
	}
}

func TestSendMessageSegmentation(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	pkts, err := nw.SendMessage(0, 5, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if pkts != 4 { // 32+32+32+4
		t.Errorf("packets = %d, want 4", pkts)
	}
	delivered := 0
	nw.SetSink(func(d Delivery) {
		if d.Packet.Tag != 42 {
			t.Errorf("tag lost: %v", d.Packet.Tag)
		}
		delivered++
	})
	if _, ok := nw.RunUntilIdle(100000); !ok {
		t.Fatal("did not drain")
	}
	if delivered != 4 {
		t.Errorf("delivered = %d", delivered)
	}
	if _, err := nw.SendMessage(0, 5, 0, 0); err == nil {
		t.Error("zero-flit message should error")
	}
}

// TestFlitConservation is the fundamental invariant: under arbitrary
// random traffic, every injected flit is eventually ejected and packet
// counts balance.
func TestFlitConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw, err := New(Config{Width: 4, Height: 4, BufferDepth: 2, FlitBits: 64, MaxPacketFlit: 8})
		if err != nil {
			return false
		}
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			src := rng.Intn(16)
			dst := rng.Intn(16)
			if dst == src {
				dst = (src + 1) % 16
			}
			if err := nw.Inject(Packet{Src: src, Dst: dst, Flits: 1 + rng.Intn(8)}); err != nil {
				return false
			}
			// Interleave stepping so traffic overlaps.
			if rng.Intn(3) == 0 {
				nw.Step()
			}
		}
		if _, ok := nw.RunUntilIdle(1_000_000); !ok {
			return false // deadlock or livelock: must never happen with XY
		}
		st := nw.Stats()
		return st.FlitsInjected == st.FlitsEjected &&
			st.PacketsIn == st.PacketsOut &&
			st.PacketsIn == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestHeavyCongestionDrains saturates a single destination (the hotspot
// pattern of the accelerator's memory interfaces) and checks progress.
func TestHeavyCongestionDrains(t *testing.T) {
	nw := newTestNet(t, Config{Width: 4, Height: 4, BufferDepth: 2, FlitBits: 64, MaxPacketFlit: 16})
	for src := 0; src < 16; src++ {
		if src == 0 {
			continue
		}
		for k := 0; k < 20; k++ {
			if err := nw.Inject(Packet{Src: src, Dst: 0, Flits: 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := nw.RunUntilIdle(2_000_000); !ok {
		t.Fatal("hotspot traffic did not drain (deadlock?)")
	}
	st := nw.Stats()
	if st.FlitsInjected != st.FlitsEjected {
		t.Errorf("flits lost: %d injected, %d ejected", st.FlitsInjected, st.FlitsEjected)
	}
}

// TestWormholeIntegrity checks that two long packets contending for the
// same path do not interleave: deliveries happen exactly once per packet
// and latency ordering reflects serialization.
func TestWormholeIntegrity(t *testing.T) {
	nw := newTestNet(t, Config{Width: 4, Height: 1, BufferDepth: 2, FlitBits: 64, MaxPacketFlit: 16})
	var deliveries []Delivery
	nw.SetSink(func(d Delivery) { deliveries = append(deliveries, d) })
	// Two 16-flit packets from nodes 0 and 1 to node 3 share the link 2->3.
	if err := nw.Inject(Packet{Src: 0, Dst: 3, Flits: 16, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Inject(Packet{Src: 1, Dst: 3, Flits: 16, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntilIdle(10000); !ok {
		t.Fatal("did not drain")
	}
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	// Serialized tails: the two tail ejections must be >= 16 cycles apart
	// only if fully serialized; at minimum they cannot eject on the same
	// cycle because the destination ejection port handles one flit/cycle.
	if deliveries[0].Cycle == deliveries[1].Cycle {
		t.Error("two tails ejected same cycle through one port")
	}
}

// TestSingleFlitOneHopLatency pins the exact latency of the minimal
// transfer: a single-flit packet to an adjacent node. The flit spends one
// cycle entering the local input port (phase 3), one crossing the link
// (phase 2 of the next cycle), and one being ejected at the destination —
// three cycles, with the delivery cycle itself counted. A tail ejected
// during cycle N completes at cycle N+1; crediting it N cycles (the
// pre-fix accounting, which read the cycle counter before its end-of-Step
// increment) undercounts every packet by one.
func TestSingleFlitOneHopLatency(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	var got []Delivery
	nw.SetSink(func(d Delivery) { got = append(got, d) })
	if err := nw.Inject(Packet{Src: 1, Dst: 2, Flits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntilIdle(100); !ok {
		t.Fatal("did not drain")
	}
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	if got[0].Latency != 3 {
		t.Errorf("one-hop single-flit latency = %d cycles, want exactly 3", got[0].Latency)
	}
	if got[0].Cycle != 3 {
		t.Errorf("delivery cycle = %d, want 3", got[0].Cycle)
	}
	if sum := nw.Stats().LatencySum; sum != 3 {
		t.Errorf("LatencySum = %d, want 3", sum)
	}
	// The same invariant away from cycle zero: latency is position
	// independent.
	for i := 0; i < 10; i++ {
		nw.Step()
	}
	if err := nw.Inject(Packet{Src: 1, Dst: 2, Flits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntilIdle(100); !ok {
		t.Fatal("did not drain")
	}
	if got[1].Latency != 3 {
		t.Errorf("delayed one-hop latency = %d cycles, want 3", got[1].Latency)
	}
}

func TestIdleAndStats(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	if !nw.Idle() {
		t.Error("fresh network should be idle")
	}
	nw.Step()
	if nw.Cycle() != 1 {
		t.Errorf("cycle = %d", nw.Cycle())
	}
	if nw.Inject(Packet{Src: 0, Dst: 1, Flits: 1}) != nil {
		t.Fatal("inject failed")
	}
	if nw.Idle() {
		t.Error("network with queued flit should not be idle")
	}
	if nw.InjectQueueLen(0) != 1 {
		t.Errorf("inject queue = %d", nw.InjectQueueLen(0))
	}
	if nw.Nodes() != 16 {
		t.Errorf("nodes = %d", nw.Nodes())
	}
}

func TestRunUntilIdleBudget(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	if err := nw.Inject(Packet{Src: 0, Dst: 15, Flits: 4}); err != nil {
		t.Fatal(err)
	}
	// A two-cycle budget cannot drain a six-hop packet.
	if _, ok := nw.RunUntilIdle(2); ok {
		t.Error("RunUntilIdle claimed drain within 2 cycles")
	}
}

func TestFlitTypeString(t *testing.T) {
	for ft, want := range map[FlitType]string{
		HeadFlit: "head", BodyFlit: "body", TailFlit: "tail", HeadTailFlit: "headtail",
	} {
		if ft.String() != want {
			t.Errorf("FlitType(%d).String() = %q", ft, ft.String())
		}
	}
	if FlitType(9).String() == "" {
		t.Error("unknown flit type should still print")
	}
	if PortName(-1) == "" || PortName(PortEast) != "east" {
		t.Error("PortName broken")
	}
}

func TestPerRouterTraversals(t *testing.T) {
	nw := newTestNet(t, DefaultConfig())
	if err := nw.Inject(Packet{Src: 0, Dst: 3, Flits: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntilIdle(1000); !ok {
		t.Fatal("did not drain")
	}
	per := nw.PerRouterTraversals()
	if len(per) != 16 {
		t.Fatalf("per-router length = %d", len(per))
	}
	// Path 0 -> 1 -> 2 -> 3: each router on the path forwards 2 flits.
	for _, r := range []int{0, 1, 2, 3} {
		if per[r] != 2 {
			t.Errorf("router %d traversals = %d, want 2", r, per[r])
		}
	}
	for _, r := range []int{4, 5, 15} {
		if per[r] != 0 {
			t.Errorf("router %d traversals = %d, want 0", r, per[r])
		}
	}
	var sum uint64
	for _, c := range per {
		sum += c
	}
	if sum != nw.Stats().RouterTraverse {
		t.Errorf("per-router sum %d != total %d", sum, nw.Stats().RouterTraverse)
	}
}
