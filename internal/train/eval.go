package train

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Evaluation is sharded across the deterministic worker pool: the
// sample range is split into contiguous chunks, each chunk owned by one
// goroutine with its own reused Runner over the shared read-only graph.
// Integer agreement counts are summed exactly; per-probe float scores are
// written into an index-ordered slice and reduced serially in index
// order. Together with the bit-identical scratch kernels this makes every
// result byte-identical for every worker count.

// Accuracy returns the top-1 accuracy of the network on labelled samples.
func Accuracy(g *nn.Graph, samples []dataset.Sample) (float64, error) {
	return TopKAccuracyWorkers(g, samples, 1, 1)
}

// AccuracyWorkers is Accuracy with the samples sharded over the worker
// pool (workers <= 0 selects one per CPU). The result is identical for
// every worker count.
func AccuracyWorkers(g *nn.Graph, samples []dataset.Sample, workers int) (float64, error) {
	return TopKAccuracyWorkers(g, samples, 1, workers)
}

// TopKAccuracyWorkers returns the fraction of samples whose true label
// appears in the network's k highest-scoring classes, with the samples
// sharded over the worker pool.
//
// The samples run through g's prefix memo (nn.Graph.BeginMemo): when a
// search re-scores the same samples after changing one layer, only the
// layers from the first changed parameterized layer onward re-run. The
// memo validates parameters and inputs bitwise on every call, so the
// score is bit-identical to a full forward of every sample.
func TopKAccuracyWorkers(g *nn.Graph, samples []dataset.Sample, k, workers int) (float64, error) {
	if len(samples) == 0 {
		return 0, errors.New("train: no samples")
	}
	if k <= 0 {
		return 0, fmt.Errorf("train: non-positive k %d", k)
	}
	hits := make([]bool, len(samples))
	err := forEachSample(g, samples, workers, func(i int, y *tensor.Tensor) {
		hits[i] = topKHit(y, samples[i].Label, k)
	})
	if err != nil {
		return 0, err
	}
	return float64(countTrue(hits)) / float64(len(samples)), nil
}

// forEachSample runs g on every sample image through g's prefix memo and
// visits each output once, sharded like forEachProbe.
func forEachSample(g *nn.Graph, samples []dataset.Sample, workers int, visit func(i int, y *tensor.Tensor)) error {
	xs := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		xs[i] = samples[i].Image
	}
	pass := g.BeginMemo(xs)
	err := forEachProbe(workers, len(xs), g, pass.Forward, visit)
	pass.End(err)
	return err
}

// topKHit reports whether label is among the k highest-scoring classes
// of y, without allocating: it counts the logits that beat the label's,
// where beating means greater, or equal at a lower index. That is
// stats.TopK's stable lower-index-first order for every NaN-free y.
// TopK's sort treats a NaN as a barrier no count reproduces, so a y
// holding one is ranked by TopK itself.
func topKHit(y *tensor.Tensor, label, k int) bool {
	if label < 0 || label >= len(y.Data) {
		return false
	}
	v := y.Data[label]
	beat := 0
	for i, u := range y.Data {
		if u != u {
			return slices.Contains(stats.TopK(y.Float64s(), k), label)
		}
		if u > v || (u == v && i < label) {
			beat++
		}
	}
	return beat < k
}

// Fidelity measures top-k agreement between a modified network and
// reference predictions over a fixed probe set (see Overlap). With the
// original network as its own reference it is 1.0 by construction, so the
// paper's normalized accuracy series for the large (untrainable offline)
// models are reproduced as fidelity curves; see DESIGN.md.
type Fidelity struct {
	refTopK [][]int
	k       int
}

// NewFidelity captures the reference top-k predictions of g over the probe
// inputs.
func NewFidelity(g *nn.Graph, probes []*tensor.Tensor, k int) (*Fidelity, error) {
	if len(probes) == 0 {
		return nil, errors.New("train: no probe inputs")
	}
	if k <= 0 {
		return nil, fmt.Errorf("train: non-positive k %d", k)
	}
	f := &Fidelity{k: k, refTopK: make([][]int, len(probes))}
	r := g.AcquireRunner()
	defer r.Release()
	for i, x := range probes {
		y, err := r.Forward(x)
		if err != nil {
			return nil, err
		}
		f.refTopK[i] = stats.TopK(y.Float64s(), k)
	}
	return f, nil
}

// overlapOf returns the fraction of probe i's reference top-k classes
// that remain in y's top-k.
func (f *Fidelity) overlapOf(y *tensor.Tensor, i int) float64 {
	newTop := stats.TopK(y.Float64s(), f.k)
	inNew := make(map[int]bool, len(newTop))
	for _, idx := range newTop {
		inNew[idx] = true
	}
	kept := 0
	for _, ref := range f.refTopK[i] {
		if inNew[ref] {
			kept++
		}
	}
	return float64(kept) / float64(len(f.refTopK[i]))
}

// Overlap is the mean fraction of the reference top-k classes that
// remain in the modified network's top-k. It resolves small
// perturbations that leave the top-1 prediction inside the reference
// top-k (where a top-1-in-top-k score saturates at 1), which the
// sensitivity analysis of Fig. 9 needs.
func (f *Fidelity) Overlap(g *nn.Graph, probes []*tensor.Tensor) (float64, error) {
	return f.OverlapWorkers(g, probes, 1)
}

// OverlapWorkers is Overlap sharded over the worker pool. Per-probe
// overlap values are collected index-ordered and summed serially, so the
// float result is byte-identical for every worker count.
func (f *Fidelity) OverlapWorkers(g *nn.Graph, probes []*tensor.Tensor, workers int) (float64, error) {
	if len(probes) != len(f.refTopK) {
		return 0, fmt.Errorf("train: %d probes, reference has %d", len(probes), len(f.refTopK))
	}
	return f.sumOverlap(workers, len(probes), g, func(r *nn.Runner, i int) (*tensor.Tensor, error) {
		return r.Forward(probes[i])
	})
}

// OverlapFromWorkers is OverlapWorkers using cached prefix activations:
// acts[i] must be the ForwardAll result of probe i on the *unmodified*
// prefix, and from names the first layer whose parameters changed. Only
// the suffix re-runs, which is what makes the delta sweeps on the very
// deep models tractable.
func (f *Fidelity) OverlapFromWorkers(g *nn.Graph, acts []map[string]*tensor.Tensor, from string, workers int) (float64, error) {
	if len(acts) != len(f.refTopK) {
		return 0, fmt.Errorf("train: %d cached activations, reference has %d", len(acts), len(f.refTopK))
	}
	return f.sumOverlap(workers, len(acts), g, func(r *nn.Runner, i int) (*tensor.Tensor, error) {
		return r.ForwardFrom(acts[i], from)
	})
}

// forEachProbe shards the probe indices into per-worker chunks, each
// walked in index order through its own Runner, and visits every probe's
// output exactly once. The Runners come from the graph's idle list
// (Graph.AcquireRunner), which hands every released Runner out again, so
// a search that re-scores the network after every candidate reuses warm
// arenas instead of reallocating them on each call. The Runner's
// activations are bit-identical for every worker count, so visit sees
// the same tensors regardless of sharding.
func forEachProbe(workers, n int, g *nn.Graph,
	eval func(r *nn.Runner, i int) (*tensor.Tensor, error),
	visit func(i int, y *tensor.Tensor)) error {
	workers = min(parallel.Workers(workers), n)
	return parallel.ForEach(context.Background(), workers, workers, func(_ context.Context, w int) error {
		lo, hi := parallel.ChunkRange(n, workers, w)
		r := g.AcquireRunner()
		defer r.Release()
		for i := lo; i < hi; i++ {
			y, err := eval(r, i)
			if err != nil {
				return err
			}
			visit(i, y)
		}
		return nil
	})
}

// countTrue returns the number of set flags. Workers own disjoint index
// ranges of the flag slice, and the exact integer sum is order-independent.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// sumOverlap collects per-probe overlap values index-ordered and reduces
// them serially in index order for a worker-count-independent float sum.
func (f *Fidelity) sumOverlap(workers, n int, g *nn.Graph,
	eval func(r *nn.Runner, i int) (*tensor.Tensor, error)) (float64, error) {
	vals := make([]float64, n)
	err := forEachProbe(workers, n, g, eval, func(i int, y *tensor.Tensor) {
		vals[i] = f.overlapOf(y, i)
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	return total / float64(n), nil
}
