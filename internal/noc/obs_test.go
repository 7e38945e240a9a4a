package noc

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTraceHooks drives one packet with tracing and a latency histogram
// installed and checks the emitted lifecycle events and samples.
func TestTraceHooks(t *testing.T) {
	nw, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	buf := tr.Buffer("test", 0, "noc")
	hist := obs.NewHistogram(obs.Pow2Buckets(20))
	nw.SetTrace(buf)
	nw.SetLatencyHistogram(hist)
	if err := nw.Inject(Packet{Src: 0, Dst: 15, Flits: 4}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntilIdle(10_000); !ok {
		t.Fatal("did not drain")
	}
	// One inject instant plus one delivery span.
	if got := buf.Len(); got != 2 {
		t.Fatalf("trace events = %d, want 2", got)
	}
	if hist.Count() != 1 {
		t.Fatalf("latency samples = %d, want 1", hist.Count())
	}
	if hist.Sum() != nw.Stats().LatencySum {
		t.Fatalf("histogram sum %d != stats latency sum %d", hist.Sum(), nw.Stats().LatencySum)
	}
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"name":"inject"`, `"name":"pkt"`} {
		if !strings.Contains(sb.String(), frag) {
			t.Fatalf("export missing %s: %s", frag, sb.String())
		}
	}

	// Reset clears the hooks along with the sink: a pooled network must
	// not leak one workload's buffers into the next.
	nw.Reset()
	if nw.trace != nil || nw.latHist != nil {
		t.Fatal("Reset did not clear the obs hooks")
	}
}

// TestTraceIdenticalAcrossRuns re-runs the same workload on a reset
// network and requires byte-identical exports — the per-run determinism
// the CI trace-smoke job checks end to end.
func TestTraceIdenticalAcrossRuns(t *testing.T) {
	nw, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		nw.Reset()
		tr := obs.NewTrace()
		nw.SetTrace(tr.Buffer("run", 0, "noc"))
		for src := 1; src < 16; src++ {
			if _, err := nw.SendMessage(src, 0, 16, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := nw.RunUntilIdle(100_000); !ok {
			t.Fatal("did not drain")
		}
		var sb strings.Builder
		if err := tr.WriteChromeJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("trace export changed between identical runs (run %d)", i+1)
		}
	}
}

// TestDisabledObsZeroAllocs pins the zero-overhead contract on the NoC
// hot path: with no trace buffer or histogram installed, the warm
// steady-state inject/route/eject loop must not allocate at all.
func TestDisabledObsZeroAllocs(t *testing.T) {
	nw, err := New(Config{Width: 16, Height: 16, BufferDepth: 4, FlitBits: 64, MaxPacketFlit: 32})
	if err != nil {
		t.Fatal(err)
	}
	iter := func() {
		nw.Reset()
		if err := nw.Inject(Packet{Src: 0, Dst: 255, Flits: 4}); err != nil {
			t.Fatal(err)
		}
		if _, ok := nw.RunUntilIdle(100_000); !ok {
			t.Fatal("did not drain")
		}
	}
	iter() // warm the pooled buffers
	if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
		t.Fatalf("disabled-obs steady state allocated %.1f allocs/op, want 0", allocs)
	}
}
