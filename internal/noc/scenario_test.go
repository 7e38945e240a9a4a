package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// scenarioRun is one network driven through a scenario, recording every
// observable output: Stats, the per-router heatmap, the delivery stream
// and the exported trace.
type scenarioRun struct {
	t   *testing.T
	nw  *Network
	del []Delivery
	tr  *obs.Trace
}

func newScenarioRun(t *testing.T, cfg Config) *scenarioRun {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &scenarioRun{t: t, nw: nw}
	r.observe()
	return r
}

// observe installs a fresh delivery sink and trace buffer (Reset clears
// both).
func (r *scenarioRun) observe() {
	r.del = nil
	r.tr = obs.NewTrace()
	r.nw.SetSink(func(d Delivery) { r.del = append(r.del, d) })
	r.nw.SetTrace(r.tr.Buffer("scenario", 0, "noc"))
}

func (r *scenarioRun) inject(src, dst, flits int) {
	r.t.Helper()
	if err := r.nw.Inject(Packet{Src: src, Dst: dst, Flits: flits}); err != nil {
		r.t.Fatal(err)
	}
}

func (r *scenarioRun) send(src, dst, flits int) {
	r.t.Helper()
	if _, err := r.nw.SendMessage(src, dst, flits, 0); err != nil {
		r.t.Fatal(err)
	}
}

// step advances the network one cycle and checks its skip aggregates.
func (r *scenarioRun) step() {
	r.t.Helper()
	stepChecked(r.t, r.nw)
}

// drain steps the network until it is idle, checking the skip
// aggregates every cycle and failing after maxCycles.
func (r *scenarioRun) drain(maxCycles uint64) {
	r.t.Helper()
	if !drainChecked(r.t, r.nw, maxCycles) {
		r.t.Fatalf("did not drain within %d cycles", maxCycles)
	}
}

// digest writes every observable output of the run to w.
func (r *scenarioRun) digest(w io.Writer) {
	r.t.Helper()
	fmt.Fprintf(w, "stats %+v\nrouters %v\n", r.nw.Stats(), r.nw.PerRouterTraversals())
	for _, d := range r.del {
		fmt.Fprintf(w, "delivery %d %d->%d %d flits cycle %d latency %d\n",
			d.Packet.ID, d.Packet.Src, d.Packet.Dst, d.Packet.Flits, d.Cycle, d.Latency)
	}
	if err := r.tr.WriteChromeJSON(w); err != nil {
		r.t.Fatal(err)
	}
}

// scenarios are the NoC workloads whose complete observable output is
// pinned by SHA-256. The dense, sparse and backpressure digests were
// recorded while the simulator still had a second, event-driven engine
// and both engines produced them. The faulty, randomized and reset-reuse
// workloads once also ran virtual-channel and YX/west-first routers;
// their digests are what the multi-VC router computed for these same
// one-lane XY configurations. Together they pin the behaviour of the
// stepping loop and its skip aggregates: a changed digest means the
// simulator's behaviour changed.
var scenarios = []struct {
	name string
	want string
	run  func(t *testing.T, h io.Writer)
}{
	// Sustained uniform traffic plus an all-to-one hotspot on the paper's
	// 4x4 mesh: every router contended.
	{"dense", "d8e23c85c17a32dd807badf7e99edd990ee1cefc71f25508b54134440521a86e", func(t *testing.T, h io.Writer) {
		r := newScenarioRun(t, DefaultConfig())
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 6; round++ {
			for src := 1; src < 16; src++ {
				r.send(src, 0, 40) // hotspot convergence on the corner
			}
			for k := 0; k < 24; k++ {
				src, dst := rng.Intn(16), rng.Intn(16)
				if dst == src {
					dst = (src + 1) % 16
				}
				r.inject(src, dst, 1+rng.Intn(8))
			}
			r.drain(200_000)
		}
		r.digest(h)
	}},
	// Single small packets crossing a 16x16 mesh with idle gaps: the
	// in-flight-but-uncontended regime where most routers are empty.
	{"sparse", "b9563249c92d022db5aaad6fccbb838f8724778005e670b16280baf73ef04cab", func(t *testing.T, h io.Writer) {
		r := newScenarioRun(t, Config{Width: 16, Height: 16, BufferDepth: 4, FlitBits: 64, MaxPacketFlit: 32})
		for round := 0; round < 8; round++ {
			r.inject(round*31%256, 255-round*17%256, 4)
			r.drain(100_000)
			for g := 0; g < 50; g++ {
				r.step()
			}
		}
		r.digest(h)
	}},
	// Transient link corruption driving NACK and retransmission, plus
	// dead links driving reroutes and unroutable kills.
	{"faulty", "941c8247a3e3175d5c171e198f242a0bc07e02b32b28d5fffc93e954a19e5046", func(t *testing.T, h io.Writer) {
		cfg := DefaultConfig()
		cfg.MaxRetries = 3
		cfg.Faults = faults.Model{
			Seed:         99,
			LinkFlitRate: 0.02,
			// Cut node 5 off completely: packets to it are killed
			// unroutable and drained; traffic around it detours.
			DeadLinks: []faults.Link{
				{From: 4, To: 5}, {From: 6, To: 5}, {From: 1, To: 5}, {From: 9, To: 5},
			},
		}
		r := newScenarioRun(t, cfg)
		rng := rand.New(rand.NewSource(23))
		for round := 0; round < 5; round++ {
			for src := 0; src < 16; src++ {
				dst := (src + 3 + round) % 16
				if dst == src {
					dst = (src + 1) % 16
				}
				r.send(src, dst, 10+round)
			}
			for k := 0; k < 8; k++ {
				if src := rng.Intn(16); src != 5 {
					r.inject(src, 5, 1+rng.Intn(6)) // unroutable kills
				}
			}
			r.drain(500_000)
		}
		if r.nw.Stats().RetransmittedPackets == 0 {
			t.Error("workload exercised no retransmissions")
		}
		if r.nw.Stats().UnroutablePackets == 0 {
			t.Error("workload exercised no unroutable kills")
		}
		r.digest(h)
	}},
	// Seeded random traffic with mid-flight injections (not just
	// drain-from-idle), across mesh shapes.
	{"randomized", "d427b39af266d02844cd77cd7709b6d33c1a3329c1943fc25eb69d29d0b892ab", func(t *testing.T, h io.Writer) {
		shapes := []struct {
			w, h int
			seed int64
		}{
			{4, 4, 441},
			{4, 4, 444},
			{8, 3, 832},
			{2, 9, 191},
		}
		for _, sh := range shapes {
			r := newScenarioRun(t, Config{
				Width: sh.w, Height: sh.h, BufferDepth: 2, FlitBits: 64, MaxPacketFlit: 16,
			})
			rng := rand.New(rand.NewSource(sh.seed))
			nodes := sh.w * sh.h
			for i := 0; i < 4000; i++ {
				if rng.Intn(3) == 0 {
					src, dst := rng.Intn(nodes), rng.Intn(nodes)
					if dst == src {
						dst = (src + 1) % nodes
					}
					r.inject(src, dst, 1+rng.Intn(16))
				}
				r.step()
			}
			r.drain(500_000)
			r.digest(h)
		}
	}},
	// A Reset network must replay exactly like a fresh one: the
	// accelerator pools networks across layers.
	{"reset-reuse", "39ed9933e5ae591333083ac8dbcb383fc6a2a88a469104a34e48e58d980d6c17", func(t *testing.T, h io.Writer) {
		cfg := DefaultConfig()
		workload := func(r *scenarioRun) {
			for round := 0; round < 3; round++ {
				for src := 0; src < 16; src += 2 {
					dst := (src + 7 + round) % 16
					if dst == src {
						dst = (src + 1) % 16
					}
					r.send(src, dst, 5)
				}
				r.drain(100_000)
			}
		}
		reused := newScenarioRun(t, cfg)
		for src := 1; src < 16; src++ {
			reused.send(src, 0, 7) // dirty the network, then reset it
		}
		reused.drain(100_000)
		reused.nw.Reset()
		reused.observe()
		workload(reused)
		fresh := newScenarioRun(t, cfg)
		workload(fresh)
		var got, want strings.Builder
		reused.digest(&got)
		fresh.digest(&want)
		if got.String() != want.String() {
			t.Error("a Reset network diverges from a fresh one")
		}
		io.WriteString(h, got.String())
	}},
	// Shallow buffers and long worms force credit stalls and
	// head-of-line blocking.
	{"backpressure", "0a4be0ab9f8ed96c12915b34c82805133a23957927241e04c1d094e2e519b95d", func(t *testing.T, h io.Writer) {
		r := newScenarioRun(t, Config{Width: 5, Height: 5, BufferDepth: 1, FlitBits: 64, MaxPacketFlit: 32})
		// Criss-cross worms sharing central links in both directions.
		for i := 0; i < 5; i++ {
			r.send(i, 20+i, 32)    // top row to bottom row
			r.send(24-i, 4-i, 32)  // bottom row to top row, reversed
			r.send(i*5, i*5+4, 32) // west column to east column
			r.send(i*5+4, i*5, 32) // east column to west column
		}
		r.drain(500_000)
		if r.nw.Stats().PacketsOut == 0 {
			t.Fatal("nothing delivered")
		}
		r.digest(h)
	}},
}

// TestScenarioHashes runs every scenario and compares the SHA-256 of its
// observable output against the recorded digest.
func TestScenarioHashes(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			h := sha256.New()
			sc.run(t, h)
			if got := hex.EncodeToString(h.Sum(nil)); got != sc.want {
				t.Errorf("output digest %s, recorded %s", got, sc.want)
			}
		})
	}
}
