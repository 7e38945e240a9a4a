package noc

import (
	"testing"

	"repro/internal/faults"
)

// FuzzNoCDrain decodes the fuzz input into a mesh shape plus a traffic
// schedule (interleaved injections and step batches), runs it, and
// checks the skip aggregates after every cycle (checkAggregates) and the
// conservation invariants once the network drains: every
// accepted packet is either delivered or dropped, the sink sees every
// delivery, and the delivered latencies sum to Stats.LatencySum. The
// fuzzer owns the schedule, so any reachable ordering of injections,
// credit stalls, retransmissions and reroutes is fair game.
func FuzzNoCDrain(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x01, 0x0f, 0x04, 0x02, 0x20, 0x05, 0x00, 0x07})
	f.Add([]byte{0xff, 0x81, 0x42, 0x10, 0x33, 0x64, 0x03, 0x11, 0x2a, 0x2a, 0x2a})
	f.Add([]byte{0x27, 0x00, 0x00, 0x90, 0x90, 0x90, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}

		shape := next()
		widths := []int{2, 3, 4, 8}
		heights := []int{2, 3, 4}
		cfg := Config{
			Width:           widths[int(shape)&3],
			Height:          heights[int(shape>>2)%3],
			BufferDepth:     1 + int(shape>>4)&3,
			FlitBits:        64,
			MaxPacketFlit:   16,
			VirtualChannels: 1 + int(shape>>6)&3,
		}
		mode := next()
		cfg.Routing = []Routing{RoutingXY, RoutingYX, RoutingWestFirst}[int(mode)%3]
		if mode&0x04 != 0 {
			cfg.Faults = faults.Model{Seed: int64(mode), LinkFlitRate: 0.05}
			cfg.MaxRetries = 2
		}
		if mode&0x08 != 0 {
			// One dead link on a fixed edge; reroute or unroutable kills.
			cfg.Faults.DeadLinks = append(cfg.Faults.DeadLinks, faults.Link{From: 0, To: 1})
		}
		nodes := cfg.Width * cfg.Height

		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var delivered, latencySum uint64
		nw.SetSink(func(d Delivery) {
			delivered++
			latencySum += d.Latency
		})

		// Schedule: each opcode byte either injects a packet or advances
		// the network a few cycles. Bounded totals keep the fuzz fast.
		steps := 0
		for len(data) > 0 && steps < 3000 {
			op := next()
			if op&1 == 0 {
				src := int(next()) % nodes
				dst := int(next()) % nodes
				if dst == src {
					dst = (src + 1) % nodes
				}
				flits := 1 + int(next())%16
				if err := nw.Inject(Packet{Src: src, Dst: dst, Flits: flits}); err != nil {
					t.Fatal(err)
				}
			} else {
				n := 1 + int(op>>1)&15
				for i := 0; i < n; i++ {
					stepChecked(t, nw)
					steps++
				}
			}
		}
		if !drainChecked(t, nw, 200_000) {
			t.Fatalf("network did not drain within 200000 cycles: %+v", nw.Stats())
		}
		st := nw.Stats()
		if st.PacketsIn != st.PacketsOut+st.Dropped() {
			t.Fatalf("packets in %d != out %d + dropped %d", st.PacketsIn, st.PacketsOut, st.Dropped())
		}
		if delivered != st.PacketsOut {
			t.Fatalf("sink saw %d deliveries, stats count %d", delivered, st.PacketsOut)
		}
		if latencySum != st.LatencySum {
			t.Fatalf("delivered latencies sum to %d, stats report %d", latencySum, st.LatencySum)
		}
	})
}
