package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSegmentBoundsEmpty(t *testing.T) {
	if runs := SegmentBounds(nil, 0); runs != nil {
		t.Errorf("SegmentBounds(nil) = %v, want nil", runs)
	}
}

func TestSegmentBoundsSingle(t *testing.T) {
	runs := SegmentBounds([]float64{3.14}, 0)
	if len(runs) != 1 || runs[0] != (Run{Start: 0, Len: 1, Dir: DirNone}) {
		t.Errorf("single element runs = %v", runs)
	}
}

func TestSegmentBoundsMonotone(t *testing.T) {
	// Strictly increasing input is one DirUp segment at delta = 0.
	w := []float64{1, 2, 3, 4, 5}
	runs := SegmentBounds(w, 0)
	if len(runs) != 1 || runs[0].Dir != DirUp || runs[0].Len != 5 {
		t.Errorf("increasing runs = %v", runs)
	}
	// Strictly decreasing likewise.
	w = []float64{5, 4, 3, 2, 1}
	runs = SegmentBounds(w, 0)
	if len(runs) != 1 || runs[0].Dir != DirDown || runs[0].Len != 5 {
		t.Errorf("decreasing runs = %v", runs)
	}
}

func TestSegmentBoundsConstant(t *testing.T) {
	// Equal steps are tolerated at delta = 0 (|step| <= 0) and never set
	// the direction.
	runs := SegmentBounds([]float64{2, 2, 2, 2}, 0)
	if len(runs) != 1 || runs[0].Dir != DirNone {
		t.Errorf("constant runs = %v", runs)
	}
}

func TestSegmentBoundsDirectionChange(t *testing.T) {
	// Up then down must split exactly at the peak.
	w := []float64{0, 1, 2, 1, 0}
	runs := SegmentBounds(w, 0)
	if len(runs) != 2 {
		t.Fatalf("runs = %v, want 2", runs)
	}
	if runs[0] != (Run{Start: 0, Len: 3, Dir: DirUp}) {
		t.Errorf("first run = %v", runs[0])
	}
	if runs[1] != (Run{Start: 3, Len: 2, Dir: DirDown}) {
		t.Errorf("second run = %v", runs[1])
	}
}

// TestSegmentBoundsWorstCase reproduces Fig. 5: a pair-by-pair inversely
// monotonic sawtooth. With the strict criterion (delta = 0) the number of
// segments is n/2 (CR = 1 with 2-word segments); with delta at least the
// tooth amplitude the whole succession collapses into one cluster.
func TestSegmentBoundsWorstCase(t *testing.T) {
	n := 16
	w := make([]float64, n)
	for i := range w {
		if i%2 == 1 {
			w[i] = 1
		}
	}
	strict := SegmentBounds(w, 0)
	if len(strict) != n/2 {
		t.Errorf("strict sawtooth segments = %d, want %d", len(strict), n/2)
	}
	weak := SegmentBounds(w, 1.0)
	if len(weak) != 1 {
		t.Errorf("weak sawtooth segments = %d, want 1", len(weak))
	}
	if weak[0].Dir != DirNone {
		t.Errorf("weak sawtooth dir = %v, want none", weak[0].Dir)
	}
}

func TestSegmentBoundsToleranceGrowsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w := make([]float64, 4096)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	prev := len(SegmentBounds(w, 0))
	for _, delta := range []float64{0.1, 0.5, 1, 2, 4} {
		cur := len(SegmentBounds(w, delta))
		if cur > prev {
			t.Errorf("delta %v: segments grew from %d to %d", delta, prev, cur)
		}
		prev = cur
	}
}

// TestSegmentBoundsCoverage is the fundamental partition invariant: runs
// cover the input exactly once, in order, with positive lengths.
func TestSegmentBoundsCoverage(t *testing.T) {
	f := func(raw []float64, dRaw uint8) bool {
		w := sanitize(raw)
		if len(w) == 0 {
			return true
		}
		delta := float64(dRaw) / 64
		runs := SegmentBounds(w, delta)
		pos := 0
		for _, r := range runs {
			if r.Start != pos || r.Len <= 0 {
				return false
			}
			pos += r.Len
		}
		return pos == len(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSegmentBoundsRunsAreWeaklyMonotonic checks Eq. 1 holds inside every
// produced run.
func TestSegmentBoundsRunsAreWeaklyMonotonic(t *testing.T) {
	f := func(raw []float64, dRaw uint8) bool {
		w := sanitize(raw)
		if len(w) == 0 {
			return true
		}
		delta := float64(dRaw) / 64
		for _, r := range SegmentBounds(w, delta) {
			if !IsWeaklyMonotonic(w[r.Start:r.Start+r.Len], delta, r.Dir) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSegmentBoundsGreedyMaximal checks that each break is necessary: the
// first element of run k+1 cannot extend run k without violating run k's
// direction.
func TestSegmentBoundsGreedyMaximal(t *testing.T) {
	f := func(raw []float64, dRaw uint8) bool {
		w := sanitize(raw)
		if len(w) == 0 {
			return true
		}
		delta := float64(dRaw) / 64
		runs := SegmentBounds(w, delta)
		for i := 0; i+1 < len(runs); i++ {
			end := runs[i].Start + runs[i].Len
			extended := w[runs[i].Start : end+1]
			if IsWeaklyMonotonic(extended, delta, runs[i].Dir) {
				return false // the break was unnecessary
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsWeaklyMonotonic(t *testing.T) {
	cases := []struct {
		w     []float64
		delta float64
		dir   Direction
		want  bool
	}{
		{[]float64{1, 2, 3}, 0, DirUp, true},
		{[]float64{1, 2, 3}, 0, DirDown, false},
		{[]float64{3, 2, 1}, 0, DirDown, true},
		{[]float64{1, 0.9, 2}, 0.1, DirUp, true},  // dip within tolerance
		{[]float64{1, 0.8, 2}, 0.1, DirUp, false}, // dip exceeds tolerance
		{[]float64{1, 1.05, 0.96}, 0.1, DirNone, true},
		{[]float64{1, 1.2, 0.95}, 0.1, DirNone, false},
		{nil, 0, DirUp, true},
		{[]float64{5}, 0, DirDown, true},
	}
	for i, c := range cases {
		if got := IsWeaklyMonotonic(c.w, c.delta, c.dir); got != c.want {
			t.Errorf("case %d: IsWeaklyMonotonic(%v, %v, %v) = %v, want %v",
				i, c.w, c.delta, c.dir, got, c.want)
		}
	}
}

func TestSegmentLengthHistogram(t *testing.T) {
	runs := []Run{{Len: 1}, {Len: 2}, {Len: 2}, {Len: 9}}
	h := SegmentLengthHistogram(runs, 4)
	if h[1] != 1 || h[2] != 2 || h[4] != 1 {
		t.Errorf("histogram = %v", h)
	}
	if got := SegmentLengthHistogram(nil, 0); len(got) != 2 {
		t.Errorf("degenerate histogram len = %d", len(got))
	}
}

func TestDirectionString(t *testing.T) {
	if DirUp.String() != "up" || DirDown.String() != "down" || DirNone.String() != "none" {
		t.Error("Direction.String mismatch")
	}
}

// TestAverageRunLengthRandomData validates the iid expectation used to
// calibrate the storage model: for high-entropy data the greedy weak
// monotone partition at delta = 0 has mean run length close to
// 2 + 2(e - 2.5) ~= 2.44.
func TestAverageRunLengthRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	n := 200000
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	runs := SegmentBounds(w, 0)
	avg := float64(n) / float64(len(runs))
	want := 2 + 2*(math.E-2.5)
	if math.Abs(avg-want) > 0.05 {
		t.Errorf("avg run length = %.4f, want ~%.4f", avg, want)
	}
}

// sanitize filters NaN/Inf and clamps magnitude so property tests exercise
// realistic weight streams.
func sanitize(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v > 1e6 {
			v = 1e6
		}
		if v < -1e6 {
			v = -1e6
		}
		out = append(out, v)
	}
	return out
}

// refSegmentBounds is the branchy reference scan of Eq. 1 that
// SegmentBounds and Compress must reproduce run for run.
func refSegmentBounds(w []float64, delta float64) []Run {
	if len(w) == 0 {
		return nil
	}
	var runs []Run
	start := 0
	dir := DirNone
	for i := 1; i < len(w); i++ {
		step := w[i] - w[i-1]
		switch {
		case step > delta: // significant move up
			if dir == DirDown {
				runs = append(runs, Run{Start: start, Len: i - start, Dir: dir})
				start, dir = i, DirNone
			} else {
				dir = DirUp
			}
		case step < -delta: // significant move down
			if dir == DirUp {
				runs = append(runs, Run{Start: start, Len: i - start, Dir: dir})
				start, dir = i, DirNone
			} else {
				dir = DirDown
			}
		default:
			// |step| <= delta (or NaN): tolerated in any direction, never
			// breaks and never sets the segment direction.
		}
	}
	return append(runs, Run{Start: start, Len: len(w) - start, Dir: dir})
}

// identityLengths straddle the 64-bit words of the run-start bitmap.
var identityLengths = []int{1, 2, 3, 63, 64, 65, 129, 100_000}

// identityInputs are the weight streams of the scan identity tests, by
// name: ties, forced direction changes at every step, noise, and the
// signed zeros and denormals where a step can round to ±0.
var identityInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"constant-runs", func(rng *rand.Rand, n int) []float64 {
		w := make([]float64, n)
		v := 0.0
		for i := range w {
			if rng.Intn(4) == 0 {
				v = float64(rng.Intn(5)) * 0.25
			}
			w[i] = v
		}
		return w
	}},
	{"sawtooth", func(_ *rand.Rand, n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i%2) + float64(i%7)*0.01
		}
		return w
	}},
	{"normal", func(rng *rand.Rand, n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64() * 0.01
		}
		return w
	}},
	{"zeros-denormals", func(rng *rand.Rand, n int) []float64 {
		vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310, math.SmallestNonzeroFloat64 * 3}
		w := make([]float64, n)
		for i := range w {
			w[i] = vals[rng.Intn(len(vals))]
		}
		return w
	}},
}

// identityDeltas are the tolerances of the identity tests for a stream
// of the given amplitude: zero, denormal and tiny, a fraction of the
// amplitude, and more than the whole amplitude.
func identityDeltas(amp float64) []float64 {
	return []float64{0, 5e-324, 1e-12, 0.1 * amp, 2*amp + 1}
}

// TestSegmentBoundsMatchesReference pins the table-driven scan to the
// branchy reference: same runs, same directions, including non-finite
// weights and a negative delta, which only SegmentBounds accepts.
func TestSegmentBoundsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(name string, w []float64, delta float64) {
		got, want := SegmentBounds(w, delta), refSegmentBounds(w, delta)
		if len(got) != len(want) {
			t.Fatalf("%s n=%d delta=%g: %d runs, reference %d", name, len(w), delta, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s n=%d delta=%g: run %d = %+v, reference %+v", name, len(w), delta, i, got[i], want[i])
			}
		}
	}
	for _, in := range identityInputs {
		for _, n := range identityLengths {
			w := in.gen(rng, n)
			for _, delta := range append(identityDeltas(stats.Amplitude(w)), -0.005) {
				check(in.name, w, delta)
			}
		}
	}
	poisoned := make([]float64, 200)
	for i := range poisoned {
		poisoned[i] = rng.NormFloat64() * 0.01
	}
	poisoned[3], poisoned[64], poisoned[65], poisoned[130] = math.NaN(), math.Inf(1), math.Inf(1), math.Inf(-1)
	for _, delta := range []float64{0, 0.01, math.Inf(1), math.NaN()} {
		check("non-finite", poisoned, delta)
	}
}
