package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestCompressErrors(t *testing.T) {
	if _, err := Compress(nil, 0); err != ErrEmptyInput {
		t.Errorf("Compress(nil) err = %v, want ErrEmptyInput", err)
	}
	if _, err := Compress([]float64{1}, -0.5); err != ErrNegativeDelta {
		t.Errorf("negative delta err = %v, want ErrNegativeDelta", err)
	}
	if _, err := CompressPct([]float64{1}, -1); err != ErrNegativeDelta {
		t.Errorf("negative pct err = %v, want ErrNegativeDelta", err)
	}
}

func TestCompressExactLine(t *testing.T) {
	// Parameters already on a line are represented exactly by one segment.
	w := make([]float64, 64)
	for i := range w {
		w[i] = 0.5 + 0.25*float64(i)
	}
	c, err := Compress(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(c.Segments))
	}
	got, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w) {
		t.Fatalf("decompressed length = %d", len(got))
	}
	for i := range w {
		if math.Abs(got[i]-w[i]) > 1e-4 {
			t.Errorf("w[%d] = %v, got %v", i, w[i], got[i])
		}
	}
}

func TestCompressConstant(t *testing.T) {
	w := []float64{0.7, 0.7, 0.7, 0.7, 0.7}
	c, err := Compress(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Segments) != 1 || math.Abs(float64(c.Segments[0].M)) > 1e-7 {
		t.Errorf("constant compression = %+v", c.Segments)
	}
	approx, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := stats.MSE(w, approx)
	if mse > 1e-12 {
		t.Errorf("constant MSE = %v", mse)
	}
}

func TestCompressPctUsesAmplitude(t *testing.T) {
	w := []float64{0, 10, 0, 10} // amplitude 10
	c, err := CompressPct(w, 20) // delta = 2
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Delta-2) > 1e-12 {
		t.Errorf("delta = %v, want 2", c.Delta)
	}
}

func TestDecompressLengthInvariant(t *testing.T) {
	f := func(raw []float64, dRaw uint8) bool {
		w := sanitize(raw)
		if len(w) == 0 {
			return true
		}
		c, err := Compress(w, float64(dRaw)/64)
		if err != nil {
			return false
		}
		got, err := c.Decompress()
		return err == nil && len(got) == len(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestDecompressMatchesHardwareUnit: the software Decompress and the
// cycle-level DecompressionUnit must produce bit-identical float32 streams,
// since both implement Eq. 2 in float32.
func TestDecompressMatchesHardwareUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := make([]float64, 2000)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.1
	}
	c, err := CompressPct(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	var unit DecompressionUnit
	hw, cycles, err := unit.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(hw) != len(sw) {
		t.Fatalf("hw %d vs sw %d weights", len(hw), len(sw))
	}
	for i := range hw {
		if float64(hw[i]) != sw[i] {
			t.Fatalf("weight %d: hw %v, sw %v", i, hw[i], sw[i])
		}
	}
	if cycles != uint64(len(w)) {
		t.Errorf("cycles = %d, want %d (one weight per cycle)", cycles, len(w))
	}
	if DecompressionCycles(c) != uint64(len(w)) {
		t.Errorf("DecompressionCycles = %d", DecompressionCycles(c))
	}
}

func TestCompressionRatioAccounting(t *testing.T) {
	w := make([]float64, 100)
	for i := range w {
		w[i] = float64(i) // one segment
	}
	c, err := Compress(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.OriginalBits() != 3200 {
		t.Errorf("OriginalBits = %d", c.OriginalBits())
	}
	if got := c.CompressedBits(DefaultStorage); got != 64 {
		t.Errorf("CompressedBits default = %d, want 64", got)
	}
	if got := c.CompressedBits(RealisticStorage); got != 80 {
		t.Errorf("CompressedBits realistic = %d, want 80", got)
	}
	if got := c.CompressionRatio(DefaultStorage); math.Abs(got-50) > 1e-12 {
		t.Errorf("CR = %v, want 50", got)
	}
	if got := c.AvgRunLength(); got != 100 {
		t.Errorf("AvgRunLength = %v", got)
	}
	empty := &Compressed{}
	if empty.CompressionRatio(DefaultStorage) != 0 || empty.AvgRunLength() != 0 {
		t.Error("empty Compressed metrics should be 0")
	}
}

// TestRandomDataCRNearPaper validates the delta = 0 calibration: for a
// high-entropy stream the default storage model yields CR ~= 1.21, the
// value Table II reports for every network at delta = 0.
func TestRandomDataCRNearPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := make([]float64, 100000)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	c, err := Compress(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	cr := c.CompressionRatio(DefaultStorage)
	if cr < 1.15 || cr > 1.30 {
		t.Errorf("CR at delta=0 on random data = %.3f, want ~1.21", cr)
	}
}

// TestCRGrowsWithDelta: Table II's central trend — compression ratio grows
// monotonically (and sharply) with the tolerance threshold.
func TestCRGrowsWithDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := make([]float64, 50000)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.05
	}
	prev := 0.0
	for _, pct := range []float64{0, 5, 10, 15, 20} {
		c, err := CompressPct(w, pct)
		if err != nil {
			t.Fatal(err)
		}
		cr := c.CompressionRatio(DefaultStorage)
		if cr < prev {
			t.Errorf("CR decreased at delta=%v%%: %v < %v", pct, cr, prev)
		}
		prev = cr
	}
	if prev < 3 {
		t.Errorf("CR at delta=20%% = %v, expected substantial growth", prev)
	}
}

// TestMSEGrowsWithDelta: the approximation error trend of Table II.
func TestMSEGrowsWithDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := make([]float64, 20000)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.05
	}
	var prev float64 = -1
	for _, pct := range []float64{0, 5, 10, 20} {
		c, err := CompressPct(w, pct)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := c.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		mse, err := stats.MSE(w, approx)
		if err != nil {
			t.Fatal(err)
		}
		if mse < prev*0.5 { // allow mild non-monotonicity, forbid collapse
			t.Errorf("MSE at delta=%v%% = %v dropped far below previous %v", pct, mse, prev)
		}
		prev = mse
	}
}

// TestValidate covers the consistency checks on hand-assembled
// successions: Decompress must refuse inconsistent segment metadata
// instead of regenerating a wrong-length weight slice.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Compressed
		ok   bool
	}{
		{"valid", Compressed{N: 5, Segments: []Segment{{Len: 2}, {Len: 3}}}, true},
		{"zero params", Compressed{N: 0, Segments: []Segment{{Len: 1}}}, false},
		{"negative params", Compressed{N: -3, Segments: []Segment{{Len: 1}}}, false},
		{"negative delta", Compressed{N: 1, Delta: -0.1, Segments: []Segment{{Len: 1}}}, false},
		{"NaN delta", Compressed{N: 1, Delta: math.NaN(), Segments: []Segment{{Len: 1}}}, false},
		{"no segments", Compressed{N: 4}, false},
		{"zero-length segment", Compressed{N: 4, Segments: []Segment{{Len: 4}, {Len: 0}}}, false},
		{"negative-length segment", Compressed{N: 4, Segments: []Segment{{Len: -1}, {Len: 5}}}, false},
		{"lengths undershoot N", Compressed{N: 10, Segments: []Segment{{Len: 4}, {Len: 5}}}, false},
		{"lengths overshoot N", Compressed{N: 3, Segments: []Segment{{Len: 2}, {Len: 2}}}, false},
		{"overflowing lengths", Compressed{N: 8, Segments: []Segment{
			{Len: math.MaxInt}, {Len: math.MaxInt}, {Len: 10},
		}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
			got, derr := tc.c.Decompress()
			if tc.ok && derr != nil {
				t.Errorf("Decompress() err = %v, want nil", derr)
			}
			if !tc.ok {
				if derr == nil {
					t.Error("Decompress() accepted an inconsistent succession")
				}
				if got != nil {
					t.Errorf("Decompress() returned %d weights alongside an error", len(got))
				}
			}
		})
	}
}

// TestDecompressRejectsTamperedSegments is the end-to-end regression for
// the blind-trust bug: a succession that was valid when compressed but
// whose segment table is later tampered with must yield an error, not a
// silently wrong-length output.
func TestDecompressRejectsTamperedSegments(t *testing.T) {
	c, err := Compress([]float64{1, 2, 3, 2, 1, 0.5, 0.25, 0.7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(); err != nil {
		t.Fatalf("valid succession rejected: %v", err)
	}
	c.Segments[0].Len += 3 // lengths no longer sum to N
	if _, err := c.Decompress(); err == nil {
		t.Error("tampered succession decompressed without error")
	}
}

func TestWeightedCR(t *testing.T) {
	// Layer is 80% of params, compressed 2x: WCR = 1/(0.2 + 0.4) = 1.667.
	got := WeightedCR(2, 80, 100)
	if math.Abs(got-1/0.6) > 1e-12 {
		t.Errorf("WeightedCR = %v, want %v", got, 1/0.6)
	}
	// Whole model compressed: WCR = layer CR.
	if got := WeightedCR(3, 100, 100); math.Abs(got-3) > 1e-12 {
		t.Errorf("full-model WCR = %v, want 3", got)
	}
	if WeightedCR(0, 10, 100) != 0 || WeightedCR(2, 0, 0) != 0 {
		t.Error("degenerate WeightedCR should be 0")
	}
}

func TestMemFootprintReduction(t *testing.T) {
	if got := MemFootprintReduction(2); got != 0.5 {
		t.Errorf("MemFootprintReduction(2) = %v", got)
	}
	if got := MemFootprintReduction(0); got != 0 {
		t.Errorf("MemFootprintReduction(0) = %v", got)
	}
}

func TestAssess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := make([]float64, 8000)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.1
	}
	r, c, err := Assess(w, 10, 10000, DefaultStorage)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.N != len(w) {
		t.Fatal("Assess returned bad Compressed")
	}
	if r.CR <= 1 || r.WeightedCR <= 1 || r.WeightedCR > r.CR {
		t.Errorf("CR = %v, WCR = %v: want 1 < WCR <= CR", r.CR, r.WeightedCR)
	}
	if r.MSE <= 0 || r.MaxErr < 0 {
		t.Errorf("MSE = %v, MaxErr = %v", r.MSE, r.MaxErr)
	}
	if r.MemFpReduction <= 0 || r.MemFpReduction >= 1 {
		t.Errorf("MemFpReduction = %v", r.MemFpReduction)
	}
	if r.Segments != len(c.Segments) {
		t.Errorf("Segments = %d, want %d", r.Segments, len(c.Segments))
	}
	if _, _, err := Assess(w, 10, 10, DefaultStorage); err == nil {
		t.Error("Assess with totalParams < len(w) should error")
	}
	if _, _, err := Assess(w, -1, len(w), DefaultStorage); err == nil {
		t.Error("Assess with negative delta should error")
	}
}

// TestAssessWorstCaseStrictVsWeak reproduces the Fig. 5 argument
// numerically: on the alternating worst case, strict segmentation yields
// CR = 1 (2-word segments, length-2 runs) while a tolerant delta collapses
// it to a single segment.
func TestAssessWorstCaseStrictVsWeak(t *testing.T) {
	n := 1000
	w := make([]float64, n)
	for i := range w {
		if i%2 == 1 {
			w[i] = 0.01
		}
	}
	strict, err := Compress(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cr := strict.CompressionRatio(DefaultStorage); math.Abs(cr-1) > 1e-9 {
		t.Errorf("strict worst-case CR = %v, want 1", cr)
	}
	weak, err := CompressPct(w, 100) // delta = amplitude
	if err != nil {
		t.Fatal(err)
	}
	if len(weak.Segments) != 1 {
		t.Errorf("weak worst-case segments = %d, want 1", len(weak.Segments))
	}
}

// TestCompressDecompressPreservesScale: the approximation stays within the
// value envelope of the input (line fits cannot overshoot the envelope by
// more than the segment's own spread).
func TestCompressDecompressPreservesScale(t *testing.T) {
	f := func(raw []float64, dRaw uint8) bool {
		w := sanitize(raw)
		if len(w) == 0 {
			return true
		}
		c, err := CompressPct(w, float64(dRaw%30))
		if err != nil {
			return false
		}
		approx, err := c.Decompress()
		if err != nil {
			return false
		}
		min, max, _ := stats.MinMax(w)
		span := max - min
		for _, v := range approx {
			if v < min-span-1e-3 || v > max+span+1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPaperFig4Example compresses an 18-parameter succession like the
// paper's pictorial example and checks the segment count stays small and
// the reconstruction tracks the trend.
func TestPaperFig4Example(t *testing.T) {
	w := []float64{
		0.1, 0.3, 0.5, 0.45, 0.2, 0.05,
		0.15, 0.35, 0.6, 0.55, 0.5, 0.3,
		0.32, 0.5, 0.7, 0.65, 0.45, 0.25,
	}
	c, err := Compress(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Segments) != 6 {
		t.Errorf("segments = %d, want 6 as in Fig. 4", len(c.Segments))
	}
	approx, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := stats.MSE(w, approx)
	if mse > 0.01 {
		t.Errorf("Fig. 4 example MSE = %v, too large", mse)
	}
}

// refCompress is Compress built on the reference scan: the same runs
// through the same fit.
func refCompress(t testing.TB, w []float64, delta float64) []Segment {
	t.Helper()
	var segs []Segment
	for _, r := range refSegmentBounds(w, delta) {
		line, err := stats.FitLine(w[r.Start : r.Start+r.Len])
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, Segment{M: float32(line.M), Q: float32(line.Q), Len: r.Len})
	}
	return segs
}

// sameSegments reports the first segment where got and want differ in
// length or in the bits of a coefficient, or -1.
func sameSegments(got, want []Segment) int {
	for i := range got {
		if i >= len(want) || got[i].Len != want[i].Len ||
			math.Float32bits(got[i].M) != math.Float32bits(want[i].M) ||
			math.Float32bits(got[i].Q) != math.Float32bits(want[i].Q) {
			return i
		}
	}
	if len(got) != len(want) {
		return len(got)
	}
	return -1
}

// TestCompressMatchesReference pins the bitmap scan and in-place fits
// bit for bit to the reference partition and fit.
func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	for _, in := range identityInputs {
		for _, n := range identityLengths {
			w := in.gen(rng, n)
			for _, delta := range identityDeltas(stats.Amplitude(w)) {
				c, err := Compress(w, delta)
				if err != nil {
					t.Fatalf("%s n=%d delta=%g: %v", in.name, n, delta, err)
				}
				want := refCompress(t, w, delta)
				if i := sameSegments(c.Segments, want); i >= 0 {
					t.Fatalf("%s n=%d delta=%g: %d segments, reference %d; first difference at segment %d",
						in.name, n, delta, len(c.Segments), len(want), i)
				}
				if c.N != n || c.Delta != delta {
					t.Fatalf("%s n=%d delta=%g: header N=%d delta=%g", in.name, n, delta, c.N, c.Delta)
				}
			}
		}
	}
}

// TestCompressRejectsNonFinite: Compress never returns a succession its
// own Validate rejects.
func TestCompressRejectsNonFinite(t *testing.T) {
	for _, delta := range []float64{math.NaN(), math.Inf(1)} {
		if c, err := Compress([]float64{1, 2, 3}, delta); err == nil {
			t.Errorf("Compress(delta=%v) = %+v, want an error", delta, c)
		}
	}
	for _, w := range [][]float64{
		{1, math.Inf(1), 3, 4},
		{1, 2, math.Inf(-1)},
		{0.5, math.NaN(), -0.25, 1},
		{0, 1e300}, // a finite fit that overflows float32
	} {
		if c, err := Compress(w, 0.1); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Compress(%v) = %v, %v; want ErrNonFinite", w, c, err)
		}
	}
	// Through CompressPct a NaN weight leaves the amplitude finite and
	// fails the fit; an infinite one makes delta non-finite.
	for _, w := range [][]float64{{0.5, math.NaN(), -0.25, 1}, {1, math.Inf(1), 3, 4}} {
		for _, pct := range []float64{0, 10} {
			if c, err := CompressPct(w, pct); err == nil {
				t.Errorf("CompressPct(%v, %v) = %+v, want an error", w, pct, c.Segments)
			}
		}
	}
}

// maxAbsErr is the largest |a[i] - b[i]| over the shorter of a and b.
func maxAbsErr(a, b []float64) float64 {
	var m float64
	for i := range min(len(a), len(b)) {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestAssessStreamingMatchesDecompress: the streamed error sums of
// Assess equal stats.MSE and maxAbsErr over Decompress bit for bit,
// across chunk boundaries and one-segment layers.
func TestAssessStreamingMatchesDecompress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 1023, 1024, 1025, 5000} {
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64() * 0.05
		}
		for _, pct := range []float64{0, 5, 20, 300} {
			rep, c, err := Assess(w, pct, 2*n, RealisticStorage)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := c.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			mse, err := stats.MSE(w, approx)
			if err != nil {
				t.Fatal(err)
			}
			maxErr := maxAbsErr(w, approx)
			if math.Float64bits(rep.MSE) != math.Float64bits(mse) || math.Float64bits(rep.MaxErr) != math.Float64bits(maxErr) {
				t.Errorf("n=%d pct=%g: Assess MSE %v MaxErr %v, Decompress %v %v", n, pct, rep.MSE, rep.MaxErr, mse, maxErr)
			}
		}
	}
}

// allocBound is what compressing n weights into segs segments may
// allocate: the segment slice and the run-start bitmap at their
// allocated sizes, each rounded up to whole 8 KiB pages as the Go
// allocator rounds a large object (and never below a small object's
// size class), plus 4 KiB for the header and the small objects. So the
// margin does not depend on where segs falls within a page.
func allocBound(segs, n int) uint64 {
	return pageUp(16*segs) + pageUp(8*((n+63)/64)) + 4096
}

// pageUp rounds b bytes up to a multiple of the allocator's 8 KiB page.
func pageUp(b int) uint64 {
	const page = 8 << 10
	return uint64((b + page - 1) / page * page)
}

// heapAlloc returns the bytes allocated while running f.
func heapAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompressAllocBound pins the streaming allocation: no run list and
// no per-weight scratch beyond a bit.
func TestCompressAllocBound(t *testing.T) {
	w := benchStream(1<<20, 2)
	var c *Compressed
	var err error
	got := heapAlloc(func() { c, err = Compress(w, 0.002) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Compress: %d B for %d segments", got, len(c.Segments))
	if bound := allocBound(len(c.Segments), len(w)); got > bound {
		t.Errorf("Compress allocated %d B for %d weights, %d segments; bound %d B", got, len(w), len(c.Segments), bound)
	}
}

// TestAssessAllocBound: Assess computes its errors without a
// decompressed copy, so it allocates no more than Compress.
func TestAssessAllocBound(t *testing.T) {
	w := benchStream(1<<20, 3)
	var rep Report
	var err error
	got := heapAlloc(func() { rep, _, err = Assess(w, 2, len(w), DefaultStorage) })
	if err != nil {
		t.Fatal(err)
	}
	if bound := allocBound(rep.Segments, len(w)); got > bound {
		t.Errorf("Assess allocated %d B for %d weights, %d segments; bound %d B", got, len(w), rep.Segments, bound)
	}
}
