package accel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// cancelSpecs is a model big enough that cancellation lands mid-layer:
// each layer runs far more than the simulator's 1024-iteration context
// polling interval.
func cancelSpecs() []LayerSpec {
	var specs []LayerSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, LayerSpec{
			Name:        fmt.Sprintf("big%d", i),
			Kind:        "CONV",
			MACs:        200_000_000,
			WeightBytes: 2 << 20,
			InputBytes:  1 << 19,
			OutputBytes: 1 << 19,
			OutSpatial:  1 << 12,
		})
	}
	return specs
}

// smallSpecs is a model that completes in milliseconds, for
// before/after result comparison.
func smallSpecs() []LayerSpec {
	return []LayerSpec{
		{Name: "s0", Kind: "CONV", MACs: 300_000, WeightBytes: 8192, InputBytes: 4096, OutputBytes: 4096, OutSpatial: 256},
		{Name: "s1", Kind: "FC", MACs: 200_000, WeightBytes: 16384, InputBytes: 2048, OutputBytes: 1024, OutSpatial: 1},
	}
}

// countdownCtx reports cancellation after its Err method has been
// polled n times — a deterministic way to land a cancel mid-layer.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls <= 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

func TestSimulateLayerContextPreCanceled(t *testing.T) {
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sim.SimulateLayerContext(ctx, cancelSpecs()[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSimulateLayerContextCancelMidLayer(t *testing.T) {
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Let a few polls pass first, so the cancel interrupts a layer that
	// is genuinely underway rather than one that never started.
	ctx := &countdownCtx{Context: context.Background(), polls: 3}
	start := time.Now()
	_, err = sim.SimulateLayerContext(ctx, cancelSpecs()[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("cancellation took %v, not prompt", el)
	}

	// The aborted run's pooled scratch must not poison later runs: the
	// same simulator must produce the exact result of a fresh one.
	after, err := sim.SimulateModel("small", smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.SimulateModel("small", smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := fmt.Sprintf("%+v", after), fmt.Sprintf("%+v", want); got != exp {
		t.Fatalf("simulator poisoned by canceled layer:\nafter cancel: %s\nfresh:        %s", got, exp)
	}
}

// progressDeadline is a context whose deadline passes when expire is
// called, not after wall-clock time. expire closes Done, makes Err report
// context.DeadlineExceeded and cancels the contexts derived from it
// (which register through AfterFunc) before it returns.
type progressDeadline struct {
	context.Context
	done  chan struct{}
	mu    sync.Mutex
	err   error
	after map[int]func()
	next  int
}

func newProgressDeadline() *progressDeadline {
	return &progressDeadline{Context: context.Background(), done: make(chan struct{}), after: map[int]func(){}}
}

func (c *progressDeadline) Done() <-chan struct{} { return c.done }

func (c *progressDeadline) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// AfterFunc arranges for f to run when the deadline passes.
func (c *progressDeadline) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	c.after[id] = f
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.after[id]
		delete(c.after, id)
		return ok
	}
}

func (c *progressDeadline) expire() {
	c.mu.Lock()
	c.err = context.DeadlineExceeded
	close(c.done)
	fs := c.after
	c.after = nil
	c.mu.Unlock()
	for _, f := range fs {
		f()
	}
}

// TestSimulateModelContextDeadlineMidModel lets the deadline pass once
// the model's layers have delivered NoC packets, with one layer held at
// its start until then: that layer cannot finish before the deadline,
// so the run must fail with it, and the others are abandoned mid-layer.
func TestSimulateModelContextDeadlineMidModel(t *testing.T) {
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(4)
	o := obs.New()
	sim.SetObserver(o)
	delivered := o.M().Histogram("noc_packet_latency_cycles", obs.Pow2Buckets(24))
	ctx := newProgressDeadline()
	var starts atomic.Int64
	// The pool is empty, so every layer's scratch comes from New; the
	// first layer to ask holds its worker until the others progress.
	sim.pool.New = func() any {
		if starts.Add(1) == 1 {
			for delivered.Count() == 0 {
				runtime.Gosched()
			}
			ctx.expire()
		}
		return nil
	}
	_, err = sim.SimulateModelContext(ctx, "big", cancelSpecs())
	sim.pool.New = nil
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// The workers' scratches went back to the pool mid-layer; the next
	// full run must still be byte-identical to a fresh simulator's.
	after, err := sim.SimulateModel("small", smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetWorkers(4)
	want, err := fresh.SimulateModel("small", smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := fmt.Sprintf("%+v", after), fmt.Sprintf("%+v", want); got != exp {
		t.Fatalf("simulator poisoned by deadline abort:\nafter abort: %s\nfresh:       %s", got, exp)
	}
}

func TestSimulateModelContextRepeatedCancels(t *testing.T) {
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Abort several times in a row; the pool keeps absorbing half-used
	// scratches, and completed runs stay deterministic throughout.
	var ref string
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := sim.SimulateModelContext(ctx, "big", cancelSpecs()); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", i, err)
		}
		res, err := sim.SimulateModel("small", smallSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if s := fmt.Sprintf("%+v", res); ref == "" {
			ref = s
		} else if s != ref {
			t.Fatalf("round %d: result drifted after aborts:\n%s\nwant %s", i, s, ref)
		}
	}
}
