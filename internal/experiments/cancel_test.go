package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
)

// cancelOnLoad is a Checkpoint that stores nothing and cancels the run's
// context when a sweep's work item asks for its stored result. The
// cancel is driven by the sweep's own progress, not by wall-clock time:
// it lands after the sweep has started and before the item's first
// simulation.
type cancelOnLoad struct{ cancel context.CancelFunc }

func (c cancelOnLoad) Load(string, any) (bool, error) {
	c.cancel()
	return false, nil
}

func (cancelOnLoad) Store(string, any) error { return nil }

// TestSweepsStopSimulatingWhenCanceled cancels each simulating sweep's
// context before its first simulation and counts the NoC packets its
// simulations deliver afterwards. A sweep whose simulations ignore the
// item's context runs every one of them to completion, delivering
// thousands of packets, and only then reports the cancellation.
func TestSweepsStopSimulatingWhenCanceled(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(Options) error
	}{
		{"fig2", func(o Options) error { _, err := Fig2(o); return err }},
		{"fig10", func(o Options) error { _, err := Fig10(o); return err }},
		{"mixed", func(o Options) error { _, err := MixedCodec(o); return err }},
		{"overlap", func(o Options) error { _, err := OverlapSweep(o); return err }},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := FastOptions()
			o.Context = ctx
			o.Checkpoint = cancelOnLoad{cancel}
			o.Obs = obs.New()
			delivered := o.Obs.M().Histogram("noc_packet_latency_cycles", obs.Pow2Buckets(24))
			if sw.name == "fig2" {
				cancel() // Fig2 has no checkpointed work item
			}
			if err := sw.run(o); !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
			if n := delivered.Count(); n != 0 {
				t.Errorf("simulations delivered %d NoC packets after the cancel", n)
			}
		})
	}
}
