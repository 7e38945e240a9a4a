package noc

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// BenchmarkStepLoaded measures the per-cycle cost of the router pipeline
// under sustained uniform random traffic.
func BenchmarkStepLoaded(b *testing.B) {
	nw, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	inject := func() {
		src := rng.Intn(16)
		dst := rng.Intn(16)
		if dst == src {
			dst = (src + 1) % 16
		}
		_ = nw.Inject(Packet{Src: src, Dst: dst, Flits: 4})
	}
	for k := 0; k < 64; k++ {
		inject()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			inject() // keep the network loaded
		}
		nw.Step()
	}
}

// BenchmarkDrainHotspot measures draining the accelerator's writeback
// pattern: twelve senders converging on one corner.
func BenchmarkDrainHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nw, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for src := 1; src < 16; src++ {
			if _, err := nw.SendMessage(src, 0, 64, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := nw.RunUntilIdle(1_000_000); !ok {
			b.Fatal("did not drain")
		}
	}
}

// BenchmarkDrainHotspotReset is BenchmarkDrainHotspot on one pooled
// network reset between iterations — the accelerator simulator's
// steady-state usage, where geometry and queue buffers are reused.
func BenchmarkDrainHotspotReset(b *testing.B) {
	nw, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Reset()
		for src := 1; src < 16; src++ {
			if _, err := nw.SendMessage(src, 0, 64, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := nw.RunUntilIdle(1_000_000); !ok {
			b.Fatal("did not drain")
		}
	}
}

// BenchmarkRunUntilIdleSparse measures the idle-heavy regime: one small
// packet crossing a 16x16 mesh, so almost every router is empty on
// every cycle. This is the case the O(1) Idle check and the per-router
// occupancy skip target.
func BenchmarkRunUntilIdleSparse(b *testing.B) {
	nw, err := New(Config{Width: 16, Height: 16, BufferDepth: 4, FlitBits: 64, MaxPacketFlit: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Reset()
		if err := nw.Inject(Packet{Src: 0, Dst: 255, Flits: 4}); err != nil {
			b.Fatal(err)
		}
		if _, ok := nw.RunUntilIdle(100_000); !ok {
			b.Fatal("did not drain")
		}
	}
}

// BenchmarkRunUntilIdleSparseObs is BenchmarkRunUntilIdleSparse with
// tracing and the latency histogram enabled — the other half of the
// on/off pair pinning the instrumentation overhead. Compare against
// BenchmarkRunUntilIdleSparse for the enabled-path delta; the disabled
// path itself is pinned at 0 allocs by TestDisabledObsZeroAllocs.
func BenchmarkRunUntilIdleSparseObs(b *testing.B) {
	nw, err := New(Config{Width: 16, Height: 16, BufferDepth: 4, FlitBits: 64, MaxPacketFlit: 32})
	if err != nil {
		b.Fatal(err)
	}
	tr := obs.NewTrace()
	buf := tr.Buffer("bench", 0, "noc")
	hist := obs.NewHistogram(obs.Pow2Buckets(20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Reset()
		buf.Reset()
		nw.SetTrace(buf)
		nw.SetLatencyHistogram(hist)
		if err := nw.Inject(Packet{Src: 0, Dst: 255, Flits: 4}); err != nil {
			b.Fatal(err)
		}
		if _, ok := nw.RunUntilIdle(100_000); !ok {
			b.Fatal("did not drain")
		}
	}
}
