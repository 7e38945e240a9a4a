package accel

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// refRun is the cycle loop without the event horizon: a full PE/MI pass
// every cycle, with the idle jump computing its target and attributing
// its cycles inline. TestLoopMatchesReference holds run to it.
func (sc *layerScratch) refRun(ctx context.Context) error {
	nw := sc.nw
	for iter := 0; !sc.done(); iter++ {
		now := nw.Cycle()
		if now > maxLayerCycle {
			return fmt.Errorf("accel: layer %q exceeded %d cycles", sc.name, maxLayerCycle)
		}
		if iter&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if dropped := nw.DroppedPackets(); dropped > 0 {
			return fmt.Errorf("%w (%d packets)", ErrDataLoss, dropped)
		}
		b, err := sc.pass(now)
		if err != nil {
			return err
		}
		if nw.Idle() {
			next := uint64(math.MaxUint64)
			for i := range sc.mis {
				if sc.mis[i].busy && sc.mis[i].finishAt < next {
					next = sc.mis[i].finishAt
				}
			}
			for i := range sc.pes {
				pe := &sc.pes[i]
				if pe.done {
					continue
				}
				if pe.computing && pe.busyUntil < next {
					next = pe.busyUntil
				}
				if pe.decoding && pe.decodeUntil > now && pe.decodeUntil < next {
					next = pe.decodeUntil
				}
			}
			if next != math.MaxUint64 && next > now+1 {
				if next > maxLayerCycle+1 {
					next = maxLayerCycle + 1
				}
				delta := next - now
				switch {
				case sc.sim.cfg.Overlap && b.comp:
					sc.lat.Computation += delta
				case sc.sim.cfg.Overlap && b.stall:
					sc.lat.DecodeStall += delta
				case b.mem:
					sc.lat.Memory += delta
				case b.comp:
					sc.lat.Computation += delta
				default:
					sc.lat.Communication += delta
				}
				nw.AdvanceIdle(next)
				continue
			}
		}
		commBusy := !nw.Idle()
		switch {
		case sc.sim.cfg.Overlap && b.comp:
			sc.lat.Computation++
		case sc.sim.cfg.Overlap && b.stall:
			sc.lat.DecodeStall++
		case b.mem:
			sc.lat.Memory++
		case commBusy:
			sc.lat.Communication++
		case b.comp:
			sc.lat.Computation++
		default:
			sc.lat.Communication++
		}
		nw.Step()
	}
	return nil
}

// refSimulateLayer is simulateLayer driven by refRun.
func (s *Simulator) refSimulateLayer(ctx context.Context, spec LayerSpec, buf *obs.Buffer) (LayerResult, error) {
	sc, err := s.startLayer(spec, buf)
	if err != nil {
		return LayerResult{}, err
	}
	defer s.pool.Put(sc)
	if err := sc.refRun(ctx); err != nil {
		return LayerResult{}, err
	}
	return s.finishLayer(spec, sc), nil
}

// randomLoopCase draws a platform and a layer: 3x3 to 5x5 meshes with
// buffer depths 1-4, transient link faults,
// serial and overlap schedules, compressed layers whose decode can
// starve the MAC lanes, and finer-than-capacity tilings.
func randomLoopCase(rng *rand.Rand) (Config, LayerSpec) {
	cfg := DefaultConfig()
	w, h := 3+rng.Intn(3), 3+rng.Intn(3)
	nodes := w * h
	cfg.Mesh.Width, cfg.Mesh.Height = w, h
	cfg.Mesh.BufferDepth = 1 + rng.Intn(4)
	if rng.Intn(3) == 0 {
		cfg.Mesh.Faults = faults.Model{Seed: rng.Int63(), LinkFlitRate: 0.002 + 0.01*rng.Float64()}
		cfg.Mesh.MaxRetries = 30
	}
	if rng.Intn(2) == 0 {
		cfg.MemNodes = []int{0, w - 1, nodes - w, nodes - 1}
	} else {
		cfg.MemNodes = rng.Perm(nodes)[:1+rng.Intn(3)]
	}
	cfg.Overlap = rng.Intn(2) == 0
	cfg.MaxSimRounds = 1 + rng.Intn(8)
	cfg.DecompUnits = 1 << rng.Intn(7)
	cfg.LocalMemBytes = 1024 << rng.Intn(3)
	cfg.Energy.DRAMLatency = rng.Intn(80)
	cfg.Energy.DRAMWordsPerCy = []float64{0.25, 0.5, 1, 2}[rng.Intn(4)]

	spec := LayerSpec{
		Name:        "layer",
		Kind:        []string{"FC", "CONV", "POOL"}[rng.Intn(3)],
		MACs:        uint64(rng.Intn(400_000)),
		WeightBytes: uint64(rng.Intn(24_000)),
		InputBytes:  uint64(1 + rng.Intn(12_000)),
		OutputBytes: uint64(rng.Intn(6_000)),
		OutSpatial:  rng.Intn(64),
	}
	if spec.WeightBytes > 0 && rng.Intn(2) == 0 {
		spec.Compressed = true
		spec.WeightCount = spec.WeightBytes * uint64(1+rng.Intn(4))
		spec.Codec = []string{"", core.SegmentCodecName}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		spec.RoundsOverride = 1 + rng.Intn(12)
	}
	return cfg, spec
}

// TestLoopMatchesReference runs seeded random layers through the event-
// horizon loop and through refRun, and requires deeply equal
// LayerResults (or identical errors) and byte-identical traces.
func TestLoopMatchesReference(t *testing.T) {
	cases := 160
	if testing.Short() {
		cases = 60
	}
	rng := rand.New(rand.NewSource(2020))
	var stalled, retransmitted, overlapped int
	for c := 0; c < cases; c++ {
		cfg, spec := randomLoopCase(rng)
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		run := func(ref bool) (LayerResult, []byte, error) {
			tr := obs.NewTrace()
			buf := tr.Buffer("loop", c, spec.Name)
			var lr LayerResult
			var err error
			if ref {
				lr, err = sim.refSimulateLayer(context.Background(), spec, buf)
			} else {
				lr, err = sim.simulateLayer(context.Background(), spec, buf)
			}
			var js bytes.Buffer
			if werr := tr.WriteChromeJSON(&js); werr != nil {
				t.Fatal(werr)
			}
			return lr, js.Bytes(), err
		}
		got, gotTrace, gotErr := run(false)
		want, wantTrace, wantErr := run(true)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("case %d (%+v, %+v): error %v, reference %v", c, cfg, spec, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%+v, %+v):\nresult    %+v\nreference %+v", c, cfg, spec, got, want)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("case %d (%+v, %+v): trace differs from the reference", c, cfg, spec)
		}
		if got.Latency.DecodeStall > 0 {
			stalled++
		}
		if got.Traffic.Retransmits > 0 {
			retransmitted++
		}
		if cfg.Overlap {
			overlapped++
		}
	}
	if stalled == 0 || retransmitted == 0 || overlapped == 0 || overlapped == cases {
		t.Fatalf("cases lack coverage: %d decode-stalled, %d retransmitting, %d of %d overlapped",
			stalled, retransmitted, overlapped, cases)
	}
	t.Logf("%d cases: %d decode-stalled, %d retransmitting, %d overlapped", cases, stalled, retransmitted, overlapped)
}
