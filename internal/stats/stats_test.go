package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax(nil) should error")
	}
}

// seqMinMax is the sequential scan MinMax must reproduce at any chunking.
func seqMinMax(xs []float64) (min, max float64) {
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// TestMinMaxChunked: chunked scans keep the sequential scan's result bit
// for bit: a leading NaN poisons both ends, a NaN opening a later chunk
// is skipped, of -0 and +0 the first seen wins, and a chunk boundary at
// the very end leaves no empty chunk to fold.
func TestMinMaxChunked(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(11))
	noise := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	cases := map[string][]float64{
		"nan-first":       append([]float64{nan}, noise(20)...),
		"nan-opens-chunk": func() []float64 { xs := noise(20); xs[8], xs[16] = nan, nan; return xs }(),
		"zeros-pos-first": {0, negZero, 0, negZero, 0, negZero, 0, negZero, 0, negZero},
		"zeros-neg-first": {negZero, 0, negZero, 0, negZero, 0, negZero, 0, negZero, 0},
		"zeros-by-chunk":  {1, 2, 3, 0, negZero, 5, 6, 7, negZero, 0, 0, negZero, -1, 9, 0, 1},
		"infinities":      {math.Inf(1), 3, 1, math.Inf(-1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(-1)},
		"exact-chunks":    noise(24),
		"ragged":          noise(23),
		"below-grain":     noise(3),
		"single":          {nan},
	}
	for name, xs := range cases {
		wantMin, wantMax := seqMinMax(xs)
		for _, grain := range []int{1, 4, 8} {
			for _, width := range []int{1, 2, 3, 8} {
				gotMin, gotMax, err := minMax(xs, grain, width)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(gotMin) != math.Float64bits(wantMin) || math.Float64bits(gotMax) != math.Float64bits(wantMax) {
					t.Errorf("%s grain=%d width=%d: (%v, %v), sequential (%v, %v)", name, grain, width, gotMin, gotMax, wantMin, wantMax)
				}
			}
		}
	}
}

func TestAmplitude(t *testing.T) {
	if got := Amplitude([]float64{-2, 0, 3}); got != 5 {
		t.Errorf("Amplitude = %v, want 5", got)
	}
	if got := Amplitude(nil); got != 0 {
		t.Errorf("Amplitude(nil) = %v, want 0", got)
	}
}

func TestMSE(t *testing.T) {
	got, err := MSE([]float64{1, 2, 3}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 4.0/3.0, 1e-12) {
		t.Errorf("MSE = %v, want 4/3", got)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("MSE length mismatch should error")
	}
	if _, err := MSE(nil, nil); err == nil {
		t.Error("MSE of empty should error")
	}
}

func TestMaxAbsErr(t *testing.T) {
	got, err := MaxAbsErr([]float64{1, -2, 3}, []float64{1.5, -2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("MaxAbsErr = %v, want 3", got)
	}
	if _, err := MaxAbsErr([]float64{1}, nil); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestFitLineExact(t *testing.T) {
	// Points exactly on y = 2x + 1 must recover m=2, q=1.
	ys := []float64{1, 3, 5, 7, 9}
	l, err := FitLine(ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.M, 2, 1e-12) || !almostEq(l.Q, 1, 1e-12) {
		t.Errorf("FitLine = %+v, want {2 1}", l)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine(nil); err == nil {
		t.Error("FitLine(nil) should error")
	}
	l, err := FitLine([]float64{7})
	if err != nil || l.M != 0 || l.Q != 7 {
		t.Errorf("FitLine single = %+v err %v, want {0 7}", l, err)
	}
	l, err = FitLine([]float64{1, 4})
	if err != nil || l.M != 3 || l.Q != 1 {
		t.Errorf("FitLine pair = %+v err %v, want {3 1}", l, err)
	}
}

func TestFitLineMinimizesMSE(t *testing.T) {
	// The least-squares line must have residuals orthogonal to [1, x]:
	// sum(r) = 0 and sum(x*r) = 0.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(50)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = rng.NormFloat64()
		}
		l, err := FitLine(ys)
		if err != nil {
			t.Fatal(err)
		}
		var sumR, sumXR float64
		for i, y := range ys {
			r := y - l.At(float64(i))
			sumR += r
			sumXR += float64(i) * r
		}
		if !almostEq(sumR, 0, 1e-8*float64(n)) || !almostEq(sumXR, 0, 1e-7*float64(n*n)) {
			t.Errorf("trial %d: residuals not orthogonal: sumR=%v sumXR=%v", trial, sumR, sumXR)
		}
	}
}

func TestFitLineXY(t *testing.T) {
	xs := []float64{0, 2, 4}
	ys := []float64{1, 5, 9} // y = 2x+1
	l, err := FitLineXY(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.M, 2, 1e-12) || !almostEq(l.Q, 1, 1e-12) {
		t.Errorf("FitLineXY = %+v, want {2 1}", l)
	}
	if _, err := FitLineXY(xs, ys[:2]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLineXY(nil, nil); err == nil {
		t.Error("empty should error")
	}
	// All same x: vertical data degenerates to horizontal mean line.
	l, err = FitLineXY([]float64{1, 1, 1}, []float64{0, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if l.M != 0 || !almostEq(l.Q, 3, 1e-12) {
		t.Errorf("degenerate FitLineXY = %+v, want {0 3}", l)
	}
}

func TestFitLineAgreesWithXY(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		ys := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			ys = append(ys, v)
		}
		if len(ys) == 0 {
			return true
		}
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		a, err1 := FitLine(ys)
		b, err2 := FitLineXY(xs, ys)
		if err1 != nil || err2 != nil {
			return false
		}
		scale := 1.0
		for _, y := range ys {
			if math.Abs(y) > scale {
				scale = math.Abs(y)
			}
		}
		return almostEq(a.M, b.M, 1e-6*scale) && almostEq(a.Q, b.Q, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	bins, err := Histogram([]float64{0, 0.5, 1, 1.5, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bins[0] != 2 || bins[1] != 3 {
		t.Errorf("Histogram = %v, want [2 3]", bins)
	}
	if _, err := Histogram(nil, 4); err == nil {
		t.Error("empty should error")
	}
	if _, err := Histogram([]float64{1}, 0); err == nil {
		t.Error("zero bins should error")
	}
	bins, err = Histogram([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bins[0] != 3 {
		t.Errorf("constant data should land in bin 0: %v", bins)
	}
}

func TestHistogramConservesCount(t *testing.T) {
	f := func(raw []float64, nb uint8) bool {
		nbins := int(nb%16) + 1
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		bins, err := Histogram(xs, nbins)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range bins {
			total += c
		}
		return total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{-4, 2})
	if got[0] != -1 || got[1] != 0.5 {
		t.Errorf("Normalize = %v, want [-1 0.5]", got)
	}
	got = Normalize([]float64{0, 0})
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("Normalize zeros = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out of range should error")
	}
	got, err := Percentile([]float64{9}, 75)
	if err != nil || got != 9 {
		t.Errorf("single-sample percentile = %v err %v", got, err)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 2, 5}); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of ties)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestTopK(t *testing.T) {
	xs := []float64{0.1, 0.9, 0.5, 0.7}
	got := TopK(xs, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("TopK = %v, want [1 3]", got)
	}
	if got := TopK(xs, 10); len(got) != 4 {
		t.Errorf("TopK overflow = %v, want all 4", got)
	}
	if got := TopK(xs, 0); got != nil {
		t.Errorf("TopK(0) = %v, want nil", got)
	}
	// Stability on ties: lower index first.
	got = TopK([]float64{5, 5, 5}, 3)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("TopK tie order = %v", got)
	}
}

func TestLineAt(t *testing.T) {
	l := Line{M: -0.5, Q: 2}
	if got := l.At(4); got != 0 {
		t.Errorf("At(4) = %v, want 0", got)
	}
}
