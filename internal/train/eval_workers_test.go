package train

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// TestWorkersVariantsMatchSerial pins the sharded batch evaluation to the
// serial results, bit-for-bit, across worker counts (including workers >
// samples). Integer agreement counts are exact by construction; overlap
// values are reduced serially in index order.
func TestWorkersVariantsMatchSerial(t *testing.T) {
	g := tinyMLP(t)
	samples, err := dataset.Digits(23, 9)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := dataset.SyntheticImages(11, dataset.DigitSize, dataset.DigitSize, 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFidelity(g, imgs, 5)
	if err != nil {
		t.Fatal(err)
	}
	acts := cachedActs(t, g, imgs)

	wantAcc, err := Accuracy(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	wantTop3, err := TopKAccuracyWorkers(g, samples, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOverlap, err := f.Overlap(g, imgs)
	if err != nil {
		t.Fatal(err)
	}
	wantOverlapFrom, err := f.OverlapFromWorkers(g, acts, "fc2", 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 64} {
		check := func(label string, got float64, err error, want float64) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s(workers=%d): %v", label, workers, err)
			}
			if got != want {
				t.Errorf("%s(workers=%d) = %v, want %v", label, workers, got, want)
			}
		}
		acc, err := AccuracyWorkers(g, samples, workers)
		check("AccuracyWorkers", acc, err, wantAcc)
		top3, err := TopKAccuracyWorkers(g, samples, 3, workers)
		check("TopKAccuracyWorkers", top3, err, wantTop3)
		overlap, err := f.OverlapWorkers(g, imgs, workers)
		check("OverlapWorkers", overlap, err, wantOverlap)
		overlapFrom, err := f.OverlapFromWorkers(g, acts, "fc2", workers)
		check("OverlapFromWorkers", overlapFrom, err, wantOverlapFrom)
	}

	// Mismatched lengths must error through the workers paths too.
	if _, err := f.OverlapWorkers(g, imgs[:3], 2); err == nil {
		t.Error("OverlapWorkers accepted mismatched probe count")
	}
	if _, err := f.OverlapFromWorkers(g, acts[:3], "fc2", 2); err == nil {
		t.Error("OverlapFromWorkers accepted mismatched activation count")
	}
}

// TestPooledRunnersMatchFresh checks the evaluators' reused Runners
// across a weight change: two AccuracyWorkers and OverlapWorkers calls
// around a SetLayerWeights must equal what fresh Runners compute, at
// one and two workers. Warm calls must then allocate far less than the
// arenas a fresh Runner builds.
func TestPooledRunnersMatchFresh(t *testing.T) {
	m, err := models.LeNet5(3)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph
	samples, err := dataset.Digits(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		probes[i] = s.Image
	}
	f, err := NewFidelity(g, probes, 5)
	if err != nil {
		t.Fatal(err)
	}
	// fresh scores the graph through a new Runner, outside the idle list.
	fresh := func() (acc, overlap float64) {
		r := g.WithScratch()
		hits := 0
		for i, s := range samples {
			y, err := r.Forward(s.Image)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ArgMax(y.Float64s()) == s.Label {
				hits++
			}
			overlap += f.overlapOf(y, i)
		}
		return float64(hits) / float64(len(samples)), overlap / float64(len(samples))
	}
	original, err := m.LayerWeights("conv_2")
	if err != nil {
		t.Fatal(err)
	}
	perturbed := make([]float64, len(original))
	for i, w := range original {
		if i%3 != 0 {
			perturbed[i] = -2 * w
		}
	}
	for _, workers := range []int{1, 2} {
		var overlaps []float64
		for _, w := range [][]float64{original, perturbed} {
			if err := m.SetLayerWeights("conv_2", w); err != nil {
				t.Fatal(err)
			}
			acc, err := AccuracyWorkers(g, samples, workers)
			if err != nil {
				t.Fatal(err)
			}
			overlap, err := f.OverlapWorkers(g, probes, workers)
			if err != nil {
				t.Fatal(err)
			}
			wantAcc, wantOverlap := fresh()
			if acc != wantAcc || overlap != wantOverlap {
				t.Fatalf("workers=%d: reused-Runner accuracy %v overlap %v, fresh %v %v",
					workers, acc, overlap, wantAcc, wantOverlap)
			}
			overlaps = append(overlaps, overlap)
		}
		if overlaps[0] == overlaps[1] {
			t.Fatalf("workers=%d: the weight change left overlap at %v", workers, overlaps[0])
		}
	}

	// Warm calls reuse the idle Runners' arenas and the graph's prefix
	// memo, and the hit test allocates nothing, so what remains is per
	// call (result slices, goroutine plumbing); a fresh Runner would add
	// every arena buffer of every layer on top (~130 objects).
	warm := testing.AllocsPerRun(5, func() {
		if _, err := AccuracyWorkers(g, samples, 1); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(5, func() {
		if _, err := g.WithScratch().Forward(samples[0].Image); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 48.0; warm > limit {
		t.Fatalf("warm AccuracyWorkers allocates %.0f objects/call, want <= %.0f (a cold Runner's first forward: %.0f)",
			warm, limit, cold)
	}
}

// TestAccuracyWorkersReusesRunners checks that warm AccuracyWorkers
// calls at two workers build no new Runner, whichever procs the workers
// run on and however many garbage collections a search's allocations
// bring about between calls. Each call scores conv_1 on weights no call
// has seen, so every sample runs the whole network and a fresh Runner
// would build every arena buffer; ten calls, each after two
// collections, must together allocate less than one fresh Runner's
// first forward does.
func TestAccuracyWorkersReusesRunners(t *testing.T) {
	m, err := models.LeNet5(5)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph
	samples, err := dataset.Digits(100, 6)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	arena := allocated(func() {
		if _, err := g.WithScratch().Forward(samples[0].Image); err != nil {
			t.Fatal(err)
		}
	})
	w := g.Layer("conv_1").Params()[0].T.Data
	score := func() {
		for i := range w {
			w[i] *= 0.999
		}
		if _, err := AccuracyWorkers(g, samples, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 10; i++ { // warm both Runners and fill the memo
			score()
		}
		warm := allocated(func() {
			for i := 0; i < 10; i++ {
				runtime.GC()
				runtime.GC()
				score()
			}
		})
		runtime.GOMAXPROCS(prev)
		t.Logf("GOMAXPROCS %d: ten warm calls allocate %d B, a fresh Runner %d B", procs, warm, arena)
		if warm >= arena {
			t.Fatalf("GOMAXPROCS %d: ten warm calls allocate %d B, one fresh Runner's arenas %d B", procs, warm, arena)
		}
	}
}
