package planner

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/train"
)

// lenet is the LeNet trained once per test binary: each layer's
// parameters (nn.WeightStream, Graph.Layers order) and the held-out set.
var lenet struct {
	once    sync.Once
	params  [][]float64
	testSet []dataset.Sample
	err     error
}

// trainedLeNet returns a quickly trained LeNet with its test set. The
// training runs once; every caller gets a fresh model with the trained
// parameters restored, so tests may mutate it freely.
func trainedLeNet(t *testing.T) (*models.Model, []dataset.Sample) {
	t.Helper()
	lenet.once.Do(func() {
		lenet.params, lenet.testSet, lenet.err = trainLeNet()
	})
	if lenet.err != nil {
		t.Fatal(lenet.err)
	}
	m, err := models.LeNet5(7)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range m.Graph.Layers() {
		if err := nn.SetWeightStream(l, lenet.params[i]); err != nil {
			t.Fatal(err)
		}
	}
	return m, append([]dataset.Sample(nil), lenet.testSet...)
}

// trainLeNet fits LeNet-5 for 3 epochs and snapshots its parameters.
func trainLeNet() ([][]float64, []dataset.Sample, error) {
	m, err := models.LeNet5(7)
	if err != nil {
		return nil, nil, err
	}
	samples, err := dataset.Digits(450, 7)
	if err != nil {
		return nil, nil, err
	}
	trainSet, testSet, err := dataset.Split(samples, 0.25)
	if err != nil {
		return nil, nil, err
	}
	opt, err := train.NewSGD(0.05, 0.9)
	if err != nil {
		return nil, nil, err
	}
	tr, err := train.NewTrainer(m.Graph, opt, 16)
	if err != nil {
		return nil, nil, err
	}
	if _, err := tr.Fit(trainSet, 3); err != nil {
		return nil, nil, err
	}
	var params [][]float64
	for _, l := range m.Graph.Layers() {
		params = append(params, nn.WeightStream(l))
	}
	return params, testSet, nil
}

func TestGreedyValidation(t *testing.T) {
	m, testSet := trainedLeNet(t)
	acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }
	if _, err := Greedy(m, nil, DefaultOptions()); err == nil {
		t.Error("nil accuracy func should error")
	}
	bad := DefaultOptions()
	bad.MaxAccuracyDrop = -1
	if _, err := Greedy(m, acc, bad); err == nil {
		t.Error("negative budget should error")
	}
	bad = DefaultOptions()
	bad.DeltaGrid = nil
	if _, err := Greedy(m, acc, bad); err == nil {
		t.Error("empty grid should error")
	}
	bad = DefaultOptions()
	bad.DeltaGrid = []float64{10, 5}
	if _, err := Greedy(m, acc, bad); err == nil {
		t.Error("descending grid should error")
	}
	bad = DefaultOptions()
	bad.Layers = []string{"ghost"}
	if _, err := Greedy(m, acc, bad); err == nil {
		t.Error("unknown layer should error")
	}
}

func TestGreedyRespectsBudgetAndBeatsSingleLayer(t *testing.T) {
	m, testSet := trainedLeNet(t)
	acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }

	// Single-layer reference: the paper's policy (dense_1 only) at the
	// largest delta of the ladder that satisfies the same accuracy budget.
	base, err := acc()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := m.SelectedWeights()
	if err != nil {
		t.Fatal(err)
	}
	const budget = 0.05
	singleWCR := 1.0
	for _, pct := range DefaultOptions().DeltaGrid {
		c, err := core.CompressPct(orig, pct)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := c.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetSelectedWeights(approx); err != nil {
			t.Fatal(err)
		}
		a, err := acc()
		if err != nil {
			t.Fatal(err)
		}
		if a >= base-budget {
			singleWCR = core.WeightedCR(c.CompressionRatio(core.DefaultStorage), len(orig), m.TotalParams())
		}
	}
	if err := m.SetSelectedWeights(orig); err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.MaxAccuracyDrop = budget
	opts.MaxEvals = 400
	plan, err := Greedy(m, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Accuracy < plan.BaseAccuracy-opts.MaxAccuracyDrop-1e-9 {
		t.Errorf("plan accuracy %v violates budget (base %v)", plan.Accuracy, plan.BaseAccuracy)
	}
	if len(plan.Assignments) == 0 {
		t.Fatal("planner compressed nothing")
	}
	if plan.WeightedCR <= 1 {
		t.Errorf("plan WCR = %v", plan.WeightedCR)
	}
	// Multi-layer planning should match or beat the single-layer policy
	// under the same budget (single-layer is a point in its search space;
	// greedy is not exhaustive, so allow a small slack).
	if plan.WeightedCR < singleWCR*0.95 {
		t.Errorf("plan WCR %v well below single-layer %v under the same budget",
			plan.WeightedCR, singleWCR)
	}
	// The final model state must reflect the plan: measured accuracy
	// matches the reported one.
	got, err := acc()
	if err != nil {
		t.Fatal(err)
	}
	if got != plan.Accuracy {
		t.Errorf("model state accuracy %v != plan accuracy %v", got, plan.Accuracy)
	}
	if plan.Evals <= 1 || plan.Evals > opts.MaxEvals {
		t.Errorf("evals = %d", plan.Evals)
	}
}

func TestGreedyZeroBudgetStaysConservative(t *testing.T) {
	m, testSet := trainedLeNet(t)
	acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }
	opts := DefaultOptions()
	opts.MaxAccuracyDrop = 0
	opts.MaxEvals = 200
	plan, err := Greedy(m, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With a zero budget every committed escalation must keep accuracy at
	// or above the baseline.
	if plan.Accuracy < plan.BaseAccuracy {
		t.Errorf("zero budget violated: %v < %v", plan.Accuracy, plan.BaseAccuracy)
	}
}

// TestGreedyTinyEvalBudgetKeepsWinner pins the eval-budget fix: when
// MaxEvals runs out mid-scan, the fully evaluated, budget-respecting
// winner must be committed, not discarded. Before the fix the outer
// `best == nil || evals >= maxEvals` break threw the escalation away and
// the plan came back empty despite a successful evaluation.
func TestGreedyTinyEvalBudgetKeepsWinner(t *testing.T) {
	m, testSet := trainedLeNet(t)
	acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }
	opts := DefaultOptions()
	opts.MaxAccuracyDrop = 0.5 // generous: the single trial must pass the floor
	opts.MaxEvals = 2          // 1 baseline + 1 candidate, exhausted mid-scan
	plan, err := Greedy(m, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Evals > opts.MaxEvals {
		t.Errorf("evals = %d exceeds budget %d", plan.Evals, opts.MaxEvals)
	}
	if len(plan.Assignments) == 0 {
		t.Fatal("budget-exhausted search discarded its evaluated escalation")
	}
}

// TestGreedyMetricsCounters checks the trial counters track the search:
// planner_evals matches the reported Plan.Evals and the escalation count
// matches the committed assignments' ladder positions.
func TestGreedyMetricsCounters(t *testing.T) {
	m, testSet := trainedLeNet(t)
	acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }
	opts := DefaultOptions()
	opts.MaxEvals = 40
	opts.Metrics = obs.NewMetrics()
	plan, err := Greedy(m, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Metrics.Counter("planner_evals").Value(); got != uint64(plan.Evals) {
		t.Errorf("planner_evals = %d, plan.Evals = %d", got, plan.Evals)
	}
	if opts.Metrics.Counter("planner_rounds").Value() == 0 {
		t.Error("planner_rounds not incremented")
	}
	if esc := opts.Metrics.Counter("planner_escalations").Value(); esc == 0 && len(plan.Assignments) > 0 {
		t.Error("escalations committed but planner_escalations is 0")
	}
}

// TestTrialCacheBitIdentical pins the restore cache: the approximation a
// revert reinstalls must be bit-identical to recompressing from scratch,
// and repeated restores must reuse the cached slice instead of redoing
// the O(n) compress+decompress work.
func TestTrialCacheBitIdentical(t *testing.T) {
	w := make([]float64, 700)
	for i := range w {
		w[i] = math.Sin(float64(i)*0.71) * 0.2
	}
	pairs, err := searchPairs(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := buildLadder("layer", w, pairs, core.DefaultStorage)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ladder {
		cached, err := tr.weights()
		if err != nil {
			t.Fatal(err)
		}
		again, err := tr.weights()
		if err != nil {
			t.Fatal(err)
		}
		if &cached[0] != &again[0] {
			t.Errorf("%s level %v: second restore recomputed instead of reusing the cache",
				tr.p.codec.Name(), tr.p.level)
		}
		fresh, err := core.CompressPct(w, tr.p.level)
		if err != nil {
			t.Fatal(err)
		}
		recomputed, err := fresh.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		for i := range recomputed {
			if math.Float64bits(cached[i]) != math.Float64bits(recomputed[i]) {
				t.Fatalf("%s level %v: cached[%d] = %x, recomputed = %x",
					tr.p.codec.Name(), tr.p.level, i,
					math.Float64bits(cached[i]), math.Float64bits(recomputed[i]))
			}
		}
	}
}

// TestGreedyMixedCodecs runs the search over the full codec arena and
// checks the plan respects the budget and only assigns known codecs.
func TestGreedyMixedCodecs(t *testing.T) {
	m, testSet := trainedLeNet(t)
	acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }
	opts := DefaultOptions()
	opts.Codecs = codecs.All()
	opts.MaxEvals = 150
	plan, err := Greedy(m, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Accuracy < plan.BaseAccuracy-opts.MaxAccuracyDrop-1e-9 {
		t.Errorf("plan accuracy %v violates budget (base %v)", plan.Accuracy, plan.BaseAccuracy)
	}
	if len(plan.Assignments) == 0 {
		t.Fatal("mixed-codec planner compressed nothing")
	}
	known := map[string]bool{}
	for _, c := range codecs.All() {
		known[c.Name()] = true
	}
	for _, a := range plan.Assignments {
		if !known[a.Codec] {
			t.Errorf("assignment uses unknown codec %q", a.Codec)
		}
		if a.Bits <= 0 || a.Bits >= 32*a.Params {
			t.Errorf("%s via %s: bits %d outside (0, %d)", a.Layer, a.Codec, a.Bits, 32*a.Params)
		}
		if a.CR <= 1 {
			t.Errorf("%s via %s: CR %v not > 1", a.Layer, a.Codec, a.CR)
		}
	}
	if plan.WeightedCR <= 1 {
		t.Errorf("mixed plan WCR = %v", plan.WeightedCR)
	}
}

// TestGreedyDeterministic runs the same search twice on identically
// built and trained models and requires identical plans — the property
// the race-enabled verify.sh run exercises for the whole suite.
func TestGreedyDeterministic(t *testing.T) {
	run := func() *Plan {
		m, testSet := trainedLeNet(t)
		acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }
		opts := DefaultOptions()
		opts.Codecs = codecs.All()
		opts.MaxEvals = 60
		plan, err := Greedy(m, acc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plans differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestGreedyLayerFilter(t *testing.T) {
	m, testSet := trainedLeNet(t)
	acc := func() (float64, error) { return train.Accuracy(m.Graph, testSet) }
	opts := DefaultOptions()
	opts.Layers = []string{"dense_2"}
	opts.MaxEvals = 100
	plan, err := Greedy(m, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if a.Layer != "dense_2" {
			t.Errorf("assignment outside filter: %s", a.Layer)
		}
	}
}
