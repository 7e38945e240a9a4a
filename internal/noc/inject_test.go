package noc

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// refPacket is what the reference needs to re-segment a packet: its
// endpoints, length and original injection cycle.
type refPacket struct {
	src, dst, flits int
	enqueued        uint64
}

// refSegment is the per-flit segmentation reference: every flit of
// packet id, formed up front the way a flit-granular injection queue
// stores them.
func refSegment(id uint64, p refPacket, attempt uint8, vcs int) []flit {
	out := make([]flit, p.flits)
	for i := range out {
		t := BodyFlit
		switch {
		case p.flits == 1:
			t = HeadTailFlit
		case i == 0:
			t = HeadFlit
		case i == p.flits-1:
			t = TailFlit
		}
		out[i] = flit{
			ftype: t, packetID: id, dst: int32(p.dst), vc: int8(id % uint64(vcs)),
			enqueued: p.enqueued, seq: int32(i), attempt: attempt,
		}
	}
	return out
}

// laneFlits copies a lane's queued flits, head first, into dst through
// the FIFO's own methods: popping and re-pushing each flit once rotates
// the queue back to its original order.
func laneFlits(dst []flit, q *flitFIFO) []flit {
	dst = dst[:0]
	for n := q.size(); n > 0; n-- {
		f := *q.front()
		q.pop()
		q.push(&f)
		dst = append(dst, f)
	}
	return dst
}

// retransmits returns the (packet, attempt) pairs of the retransmit
// events in the trace, in emission order per source node.
func retransmits(t *testing.T, tr *obs.Trace) [][2]uint64 {
	t.Helper()
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var out [][2]uint64
	for _, line := range strings.Split(csv.String(), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 8 || f[2] != "retransmit" {
			continue
		}
		var pkt, attempt uint64
		for _, kv := range strings.Split(f[7], ";") {
			k, v, _ := strings.Cut(kv, "=")
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("retransmit event %q: %v", line, err)
			}
			switch k {
			case "pkt":
				pkt = n
			case "attempt":
				attempt = n
			}
		}
		out = append(out, [2]uint64{pkt, attempt})
	}
	return out
}

// TestInjectQueueMatchesFlitReference drives seeded random schedules
// (1-4 VCs, multi-packet SendMessage calls, transient link faults that
// make the destination NI NACK and the source retransmit) and checks the
// packet-granular injection queues against a per-flit reference queue
// per node: every flit entering a local port must be the reference
// queue's head, and InjectQueueLen must equal the reference length
// after every injection call and every cycle.
func TestInjectQueueMatchesFlitReference(t *testing.T) {
	var retransmitted uint64
	for vcs := 1; vcs <= 4; vcs++ {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(vcs)))
			cfg := Config{
				Width: 4, Height: 4, FlitBits: 64,
				BufferDepth:     1 + rng.Intn(4),
				MaxPacketFlit:   2 + rng.Intn(7),
				Routing:         Routing(rng.Intn(3)),
				VirtualChannels: vcs,
				Faults:          faults.Model{Seed: seed, LinkFlitRate: 0.01 + 0.03*rng.Float64()},
				MaxRetries:      1 + rng.Intn(3),
			}
			retransmitted += runInjectReference(t, cfg, rng)
		}
	}
	if retransmitted == 0 {
		t.Fatal("no schedule retransmitted a packet; the re-enqueue path went untested")
	}
}

// runInjectReference runs one schedule against the reference and
// returns the packets it retransmitted.
func runInjectReference(t *testing.T, cfg Config, rng *rand.Rand) uint64 {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	buf := tr.Buffer("ref", 0, "noc")
	nw.SetTrace(buf)
	nodes := nw.Nodes()
	pkts := map[uint64]refPacket{}
	ref := make([][]flit, nodes)
	snap := make([][][]flit, nodes)
	var after []flit
	for n := range snap {
		snap[n] = make([][]flit, cfg.vcs())
	}

	checkLens := func(when string) {
		t.Helper()
		for n := 0; n < nodes; n++ {
			if got, want := nw.InjectQueueLen(n), len(ref[n]); got != want {
				t.Fatalf("%+v: %s, cycle %d: node %d InjectQueueLen %d, reference %d",
					cfg, when, nw.Cycle(), n, got, want)
			}
		}
	}
	send := func() {
		src, dst := rng.Intn(nodes), rng.Intn(nodes-1)
		if dst >= src {
			dst++
		}
		flits := 1 + rng.Intn(4*cfg.MaxPacketFlit)
		first := nw.Stats().PacketsIn
		n, err := nw.SendMessage(src, dst, flits, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sz := min(flits, cfg.MaxPacketFlit)
			flits -= sz
			id := first + uint64(i)
			p := refPacket{src: src, dst: dst, flits: sz, enqueued: nw.Cycle()}
			pkts[id] = p
			ref[src] = append(ref[src], refSegment(id, p, 0, cfg.vcs())...)
		}
		checkLens("after SendMessage")
	}
	step := func() {
		t.Helper()
		for n := 0; n < nodes; n++ {
			for k := range snap[n] {
				snap[n][k] = laneFlits(snap[n][k], &nw.routers[n].in[PortLocal].vcs[k].flitFIFO)
			}
		}
		buf.Reset()
		nw.Step()
		// Retransmissions are enqueued in phase 2, before phase 3
		// injects, so they join the reference first.
		for _, ev := range retransmits(t, tr) {
			p, ok := pkts[ev[0]]
			if !ok {
				t.Fatalf("retransmit of unknown packet %d", ev[0])
			}
			ref[p.src] = append(ref[p.src], refSegment(ev[0], p, uint8(ev[1]), cfg.vcs())...)
		}
		// A local lane pops at most one flit and receives at most one per
		// cycle, and the flits in a lane are distinct, so the flit that
		// entered (if any) is whatever lies past the surviving prefix.
		for n := 0; n < nodes; n++ {
			entered := 0
			for k, before := range snap[n] {
				after = laneFlits(after, &nw.routers[n].in[PortLocal].vcs[k].flitFIFO)
				popped := 0
				if len(before) > 0 && (len(after) == 0 || after[0] != before[0]) {
					popped = 1
				}
				for _, f := range after[len(before)-popped:] {
					entered++
					if len(ref[n]) == 0 {
						t.Fatalf("%+v: cycle %d: node %d injected %+v with an empty reference queue", cfg, nw.Cycle(), n, f)
					}
					if f != ref[n][0] {
						t.Fatalf("%+v: cycle %d: node %d injected %+v, reference head %+v", cfg, nw.Cycle(), n, f, ref[n][0])
					}
					ref[n] = ref[n][1:]
				}
			}
			if entered > 1 {
				t.Fatalf("%+v: cycle %d: node %d injected %d flits in one cycle", cfg, nw.Cycle(), n, entered)
			}
		}
		checkLens("after Step")
	}

	for c := 0; c < 300; c++ {
		for rng.Intn(3) == 0 {
			send()
		}
		step()
	}
	for i := 0; !nw.Idle(); i++ {
		if i > 100_000 {
			t.Fatalf("%+v: did not drain", cfg)
		}
		step()
	}
	st := nw.Stats()
	if st.PacketsIn != st.PacketsOut+st.Dropped() {
		t.Fatalf("%+v: packets in %d != out %d + dropped %d", cfg, st.PacketsIn, st.PacketsOut, st.Dropped())
	}
	return st.RetransmittedPackets
}
