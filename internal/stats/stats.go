// Package stats provides small numerical helpers shared across the
// repository: descriptive statistics, least-squares linear regression,
// histograms, and normalization utilities.
//
// The linear regression here is the mathematical core of the compression
// technique in internal/core: each weakly monotonic sub-succession of
// weights is replaced by the least-squares line fitted to its points.
package stats

import (
	"errors"
	"math"
	"sort"

	"repro/internal/parallel"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// It returns 0 for inputs with fewer than one sample.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// MinMax returns the minimum and maximum of xs: the result of scanning
// xs in order from xs[0] with strict < and >, so a leading NaN is
// returned as both and any later NaN is skipped, and of equal values
// (-0 and +0) the first seen is kept. Inputs above parallel.Grain are
// scanned in chunks on GOMAXPROCS goroutines, with the same result.
// It returns an error for empty input.
func MinMax(xs []float64) (min, max float64, err error) {
	return minMax(xs, parallel.Grain, 0)
}

// minMax is MinMax with the chunk size and width of the scan.
func minMax(xs []float64, grain, width int) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	s := parallel.Fold(len(xs), grain, width, xs, spanOf, joinSpans)
	return s.min, s.max, nil
}

// span is the minimum and maximum of a chunk of values.
type span struct{ min, max float64 }

// spanOf scans xs[lo:hi] with strict comparisons. The first chunk starts
// from xs[0], as the sequential scan does; any other from the empty span
// (+Inf, -Inf), which every non-NaN value but +Inf (-Inf) replaces.
func spanOf(xs []float64, lo, hi int) span {
	s := span{math.Inf(1), math.Inf(-1)}
	if lo == 0 {
		s = span{xs[0], xs[0]}
	}
	for _, x := range xs[lo:hi] {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	return s
}

// joinSpans folds the span r of a later chunk into acc with the
// sequential scan's strict comparisons.
func joinSpans(_ []float64, acc, r span) span {
	if r.min < acc.min {
		acc.min = r.min
	}
	if r.max > acc.max {
		acc.max = r.max
	}
	return acc
}

// Amplitude returns max(xs) - min(xs), the dynamic range of the data set.
// The paper expresses the tolerance threshold delta as a percentage of this
// amplitude. It returns 0 for empty input.
func Amplitude(xs []float64) float64 {
	min, max, err := MinMax(xs)
	if err != nil {
		return 0
	}
	return max - min
}

// MSE returns the mean squared error between two equally sized slices.
// It returns an error if the lengths differ or the input is empty.
func MSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: MSE length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s / float64(len(a)), nil
}

// Line is a straight line y = M*x + Q.
type Line struct {
	M float64 // slope
	Q float64 // intercept
}

// At evaluates the line at x.
func (l Line) At(x float64) float64 { return l.M*x + l.Q }

// FitLine computes the least-squares line through the points (i, ys[i]) for
// i = 0..len(ys)-1, i.e. regression against the implicit integer abscissa.
// This matches the paper's formulation where each monotonic sub-succession
// M_i is fitted on points (j, w_{f_i+j}), j = 0,1,...
//
// For a single point the line is horizontal through that point. For empty
// input an error is returned.
func FitLine(ys []float64) (Line, error) {
	n := len(ys)
	switch n {
	case 0:
		return Line{}, ErrEmpty
	case 1:
		return Line{M: 0, Q: ys[0]}, nil
	case 2:
		return Line{M: ys[1] - ys[0], Q: ys[0]}, nil
	}
	// For x = 0..n-1: sum(x) = n(n-1)/2, sum(x^2) = (n-1)n(2n-1)/6.
	fn := float64(n)
	sumX := fn * (fn - 1) / 2
	sumXX := (fn - 1) * fn * (2*fn - 1) / 6
	var sumY, sumXY float64
	for i, y := range ys {
		sumY += y
		sumXY += float64(i) * y
	}
	den := fn*sumXX - sumX*sumX
	if den == 0 {
		return Line{M: 0, Q: Mean(ys)}, nil
	}
	m := (fn*sumXY - sumX*sumY) / den
	q := (sumY - m*sumX) / fn
	return Line{M: m, Q: q}, nil
}

// Histogram counts xs into nbins equal-width bins spanning [min, max].
// Values exactly equal to max land in the last bin. It returns an error for
// empty input or non-positive nbins.
func Histogram(xs []float64, nbins int) ([]int, error) {
	if nbins <= 0 {
		return nil, errors.New("stats: non-positive bin count")
	}
	min, max, err := MinMax(xs)
	if err != nil {
		return nil, err
	}
	bins := make([]int, nbins)
	width := (max - min) / float64(nbins)
	if width == 0 {
		bins[0] = len(xs)
		return bins, nil
	}
	for _, x := range xs {
		i := int((x - min) / width)
		if i >= nbins {
			i = nbins - 1
		}
		if i < 0 {
			i = 0
		}
		bins[i]++
	}
	return bins, nil
}

// Normalize returns xs scaled so that the maximum absolute value is 1.
// A zero slice is returned unchanged (copied).
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	if m == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}

// TopK returns the indices of the k largest elements in descending order of
// value. If k exceeds len(xs), all indices are returned. Ties resolve to the
// lower index first.
func TopK(xs []float64, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx[:k]
}
