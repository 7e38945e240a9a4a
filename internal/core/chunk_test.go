package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// oneChunk is a grain no test stream reaches: the whole scan and fit
// run as a single chunk on the caller's goroutine.
const oneChunk = 1 << 30

// chunkGrains and chunkWidths are the chunk sizes and goroutine counts
// the chunked scan and fit must be invariant to.
var (
	chunkGrains = []int{64, 128, 192}
	chunkWidths = []int{1, 2, 3, 8}
)

// chunkStream is a stream of the chunk-invariance tests, by name, with
// the tolerance it is compressed at.
type chunkStream struct {
	name  string
	w     []float64
	delta float64
}

func chunkStreams() []chunkStream {
	rng := rand.New(rand.NewSource(19))
	gen := func(n int, f func(i int) float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = f(i)
		}
		return w
	}
	noise := func(i int) float64 { return rng.NormFloat64() * 0.01 }
	return []chunkStream{
		{"constant", gen(1000, func(int) float64 { return 0.5 }), 0},
		// One step up, then every step within ±delta: each chunk enters
		// in direction up, its speculation stays undirected, and the two
		// never coincide, so every chunk is rescanned whole.
		{"within-delta", gen(1000, func(i int) float64 {
			if i == 0 {
				return -1
			}
			return rng.Float64() * 0.01
		}), 0.02},
		// Steps alternate up and down beyond delta: the true and the
		// speculative directions swap at every step and never coincide.
		{"alternating", gen(1000, func(i int) float64 { return float64(i%2) + float64(i%5)*0.01 }), 0.1},
		// A ramp of 700 weights is one run across several chunks.
		{"long-run", gen(1000, func(i int) float64 {
			if i >= 150 && i < 850 {
				return float64(i) * 0.001
			}
			return rng.NormFloat64()
		}), 0},
		{"noise-ragged", gen(1001, noise), 0},
		{"noise-delta", gen(1000, noise), 0.01},
		{"noise-huge-delta", gen(777, noise), 1},
		{"below-one-chunk", gen(50, noise), 0},
		{"single", gen(1, noise), 0},
	}
}

// TestChunkedCompressMatchesOneChunk: the chunked scan with its resync
// fix-up and the per-chunk fits give the single-chunk result and the
// reference partition and fit, at every grain and width.
func TestChunkedCompressMatchesOneChunk(t *testing.T) {
	for _, s := range chunkStreams() {
		want, err := compress(s.w, s.delta, oneChunk, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if i := sameSegments(want.Segments, refCompress(t, s.w, s.delta)); i >= 0 {
			t.Fatalf("%s: single chunk differs from the reference at segment %d", s.name, i)
		}
		wantRuns := refSegmentBounds(s.w, s.delta)
		for _, grain := range chunkGrains {
			for _, width := range chunkWidths {
				got, err := compress(s.w, s.delta, grain, width)
				if err != nil {
					t.Fatalf("%s grain=%d width=%d: %v", s.name, grain, width, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s grain=%d width=%d: %d segments, one chunk %d; first difference at segment %d",
						s.name, grain, width, len(got.Segments), len(want.Segments), sameSegments(got.Segments, want.Segments))
				}
				if runs := segmentBounds(s.w, s.delta, grain, width); !reflect.DeepEqual(runs, wantRuns) {
					t.Fatalf("%s grain=%d width=%d: SegmentBounds differs from the reference", s.name, grain, width)
				}
			}
		}
	}
}

// TestChunkedScanIdentityInputs runs the identity streams, including
// signed zeros, denormals and a negative delta, through chunked scans.
func TestChunkedScanIdentityInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, in := range identityInputs {
		for _, n := range []int{63, 64, 65, 129, 1000} {
			w := in.gen(rng, n)
			for _, delta := range append(identityDeltas(stats.Amplitude(w)), -0.005) {
				want := refSegmentBounds(w, delta)
				for _, grain := range chunkGrains {
					for _, width := range chunkWidths {
						if got := segmentBounds(w, delta, grain, width); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s n=%d delta=%g grain=%d width=%d: runs differ from the reference", in.name, n, delta, grain, width)
						}
					}
				}
			}
		}
	}
}

// TestChunkedNonFiniteNamesSameSegment: non-finite weights on and next
// to chunk boundaries fail with the same segment named at every grain
// and width, the lowest one.
func TestChunkedNonFiniteNamesSameSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, bad := range []struct {
		at []int
		v  float64
	}{
		{[]int{128}, math.NaN()},
		{[]int{191, 192}, math.Inf(1)},
		{[]int{64, 640}, math.Inf(-1)},
		{[]int{383, 900}, math.NaN()},
	} {
		w := make([]float64, 1000)
		for i := range w {
			w[i] = rng.NormFloat64() * 0.01
		}
		for _, i := range bad.at {
			w[i] = bad.v
		}
		_, want := compress(w, 0.005, oneChunk, 1)
		if !errors.Is(want, ErrNonFinite) {
			t.Fatalf("%v at %v: single chunk returned %v, want ErrNonFinite", bad.v, bad.at, want)
		}
		for _, grain := range chunkGrains {
			for _, width := range chunkWidths {
				if _, err := compress(w, 0.005, grain, width); err == nil || err.Error() != want.Error() {
					t.Fatalf("%v at %v grain=%d width=%d: %v, want %v", bad.v, bad.at, grain, width, err, want)
				}
			}
		}
	}
}

// TestChunkedAllocBound: chunking adds only the fan-out's few small
// objects, nothing per weight or per run.
func TestChunkedAllocBound(t *testing.T) {
	w := benchStream(1<<20, 2)
	var c *Compressed
	var err error
	got := heapAlloc(func() { c, err = compress(w, 0.002, 1<<16, 8) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("16 chunks on 8 goroutines: %d B for %d segments", got, len(c.Segments))
	if bound := allocBound(len(c.Segments), len(w)) + 16<<10; got > bound {
		t.Errorf("chunked Compress allocated %d B for %d weights, %d segments; bound %d B", got, len(w), len(c.Segments), bound)
	}
}

// TestCompressSmallAllocs: below one chunk, Compress allocates the
// bitmap, the segments and the header, and nothing for the fan-out.
func TestCompressSmallAllocs(t *testing.T) {
	w := benchStream(4096, 5)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Compress(w, 0.002); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("Compress of %d weights made %v allocations, want 3", len(w), n)
	}
}
