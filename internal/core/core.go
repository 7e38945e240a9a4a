// Package core implements the paper's primary contribution: lossy,
// retraining-free compression of CNN model parameters based on weakly
// monotonic sub-succession segmentation and per-segment least-squares line
// fitting.
//
// # Algorithm
//
// Let W = {w_1, ..., w_n} be the succession of model parameters. W is
// partitioned into maximal sub-successions M_1, ..., M_m such that each M_i
// is monotonic in the weak sense with tolerance threshold delta (Eq. 1 of
// the paper): consecutive elements may move against the segment direction by
// at most delta. For each M_i the least-squares line through the points
// (j, w_{f_i+j}) is computed, and the segment is stored as the coefficient
// pair <m_i, q_i> plus its length |M_i|.
//
// Decompression regenerates approximated weights by pure accumulation
// (Eq. 2): w~_1 = q_i, w~_j = w~_{j-1} + m_i. The hardware decompression
// unit (Fig. 6) is a two-state FSM around an accumulator; it produces one
// weight per cycle with no multiplier. This package includes a cycle-level
// model of that unit (DecompressionUnit).
//
// # Storage model and compression ratio
//
// The paper reports CR ~= 1.21 at delta = 0 for every network. For a
// high-entropy weight stream the expected greedy monotone run length is
// E[L] = 2 + 2*(e - 2.5) ~= 2.44, so 1.21 corresponds to two 32-bit words
// per segment — the <m_i, q_i> pair of Sec. III-C — with the segment length
// stored out of band (e.g. shared run-length tables) at negligible cost.
// StorageModel makes the accounting explicit: DefaultStorage reproduces the
// paper's figures (LenBits = 0), RealisticStorage charges 16 bits per
// length. The ablation benches compare both.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// Errors returned by compression entry points.
var (
	ErrEmptyInput    = errors.New("core: empty parameter succession")
	ErrNegativeDelta = errors.New("core: negative tolerance threshold")
	// ErrNonFinite reports NaN or Inf segment coefficients: the
	// accumulation FSM would smear them across the whole segment (and,
	// through the running accumulator, every weight after the poisoned
	// one), so they are rejected up front.
	ErrNonFinite = errors.New("core: non-finite segment coefficients")
)

// finite32 reports whether v is neither NaN nor an infinity, the two
// values with an all-ones float32 exponent.
func finite32(v float32) bool {
	return math.Float32bits(v)&0x7f800000 != 0x7f800000
}

// Segment is one compressed monotonic sub-succession: the least-squares
// line coefficients and the number of parameters the segment regenerates.
// Coefficients are kept as float32, the width of the hardware datapath.
type Segment struct {
	M   float32 // slope of the fitted line
	Q   float32 // intercept of the fitted line (first regenerated weight)
	Len int     // |M_i|, number of parameters in the sub-succession
}

// Compressed is a compressed parameter succession.
type Compressed struct {
	N        int       // number of original parameters
	Delta    float64   // absolute tolerance threshold used (Eq. 1)
	Segments []Segment // in original stream order
}

// StorageModel describes how many bits a stored segment costs, used for
// compression-ratio accounting.
type StorageModel struct {
	CoefBits int // bits for each of m and q
	LenBits  int // bits for the segment length field
}

// DefaultStorage matches the paper's reported compression ratios:
// two 32-bit coefficients per segment, lengths amortized out of band.
var DefaultStorage = StorageModel{CoefBits: 32, LenBits: 0}

// RealisticStorage charges an explicit 16-bit length per segment, the
// conservative hardware layout. Used by the storage-format ablation.
var RealisticStorage = StorageModel{CoefBits: 32, LenBits: 16}

// QuantizedStorage is the segment layout used when compressing int8
// quantized code streams (Table III): the intercept q is itself an int8
// code and the slope m a Q1.7 fixed-point step, so both coefficients fit
// in 8 bits. With float32 coefficients the compression would expand int8
// data at small delta — visible in the paper's own Table III, where
// VGG-16's weighted CR drops below the quantization-only ratio at
// delta = 0.
var QuantizedStorage = StorageModel{CoefBits: 8, LenBits: 0}

// BitsPerSegment returns the storage cost of one segment under the model.
func (s StorageModel) BitsPerSegment() int { return 2*s.CoefBits + s.LenBits }

// weightBits is the width of one uncompressed parameter (float32).
const weightBits = 32

// Compress partitions w into weakly monotonic sub-successions with the
// given absolute tolerance threshold delta and fits each with a
// least-squares line. The input slice is not modified. A non-finite
// delta is rejected, and so is any segment whose float32 coefficients
// are not finite (ErrNonFinite, naming the first such segment), so the
// result always passes Validate.
//
// A branch-free scan marks the run starts in a bitmap, its popcount
// sizes the segment slice exactly, and a walk over the set bits fits
// each run in place: the bitmap, len(w)/8 bytes, and the segments are
// the only allocations. Inputs above parallel.Grain weights are scanned
// and fitted in chunks on GOMAXPROCS goroutines (see resync); the
// result is bit-identical to the one-chunk scan.
func Compress(w []float64, delta float64) (*Compressed, error) {
	return compress(w, delta, parallel.Grain, 0)
}

// compress is Compress with the chunk size and width of the scan and fit.
func compress(w []float64, delta float64, grain, width int) (*Compressed, error) {
	if len(w) == 0 {
		return nil, ErrEmptyInput
	}
	if delta < 0 {
		return nil, ErrNegativeDelta
	}
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("core: non-finite tolerance threshold %v", delta)
	}
	a, runs := scan(w, delta, grain, width)
	a.segs = make([]Segment, runs)
	if k := parallel.Fold(len(w), grain, width, a, fitChunk, firstBad); k >= 0 {
		s := a.segs[k]
		return nil, fmt.Errorf("%w: segment %d has m=%v q=%v", ErrNonFinite, k, s.M, s.Q)
	}
	return &Compressed{N: len(w), Delta: delta, Segments: a.segs}, nil
}

// fitChunk fits every run that starts in [lo, hi) into its segment, up
// to the run's end wherever that lies, and returns the index of the
// first segment whose coefficients are not finite, or -1.
func fitChunk(a chunked, lo, hi int) int {
	k, start := 0, 0 // the first chunk holds the run at index 0
	if lo > 0 {
		k, start = a.offs[lo/a.grain-1], -1
	}
	bad := -1
	fit := func(end int) {
		line, _ := stats.FitLine(a.w[start:end]) // fails only on an empty run
		s := Segment{M: float32(line.M), Q: float32(line.Q), Len: end - start}
		if bad < 0 && !(finite32(s.M) && finite32(s.Q)) {
			bad = k
		}
		a.segs[k] = s
		k++
	}
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		for word := a.starts[wi]; word != 0; word &= word - 1 {
			end := wi<<6 | bits.TrailingZeros64(word)
			if start >= 0 {
				fit(end)
			}
			start = end
		}
	}
	if start >= 0 { // the chunk's last run ends at the next start, or at len(w)
		end := len(a.w)
		for wi := (hi + 63) >> 6; wi < len(a.starts); wi++ {
			if word := a.starts[wi]; word != 0 {
				end = wi<<6 | bits.TrailingZeros64(word)
				break
			}
		}
		fit(end)
	}
	return bad
}

// firstBad folds fitChunk results to the lowest failing segment index.
func firstBad(_ chunked, acc, r int) int {
	if acc >= 0 {
		return acc
	}
	return r
}

// CompressPct compresses with the tolerance threshold expressed as the
// paper does: a percentage of the amplitude max(W) - min(W) of the
// parameter set. deltaPct = 15 means delta = 0.15 * amplitude.
func CompressPct(w []float64, deltaPct float64) (*Compressed, error) {
	if deltaPct < 0 {
		return nil, ErrNegativeDelta
	}
	delta := deltaPct / 100 * stats.Amplitude(w)
	return Compress(w, delta)
}

// Validate checks the internal consistency of a compressed succession:
// a positive parameter count, a finite non-negative tolerance, finite
// segment coefficients, and segments whose positive lengths sum exactly
// to N. Successions produced by Compress are valid by construction;
// anything decoded from an external stream or assembled by hand must be
// validated before decompression, because inconsistent segment lengths
// silently regenerate a wrong-length weight slice and a non-finite
// coefficient poisons every weight from there to the end of the segment.
func (c *Compressed) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: invalid compressed succession: N = %d", c.N)
	}
	if c.Delta < 0 || c.Delta != c.Delta || math.IsInf(c.Delta, 0) {
		return fmt.Errorf("core: invalid compressed succession: delta = %v", c.Delta)
	}
	if len(c.Segments) == 0 {
		return fmt.Errorf("core: invalid compressed succession: no segments for %d params", c.N)
	}
	total := 0
	for i, s := range c.Segments {
		if s.Len <= 0 {
			return fmt.Errorf("core: invalid compressed succession: segment %d has length %d", i, s.Len)
		}
		if !finite32(s.M) || !finite32(s.Q) {
			return fmt.Errorf("%w: segment %d has m=%v q=%v", ErrNonFinite, i, s.M, s.Q)
		}
		if total > c.N-s.Len {
			return fmt.Errorf("core: invalid compressed succession: segment lengths exceed %d params", c.N)
		}
		total += s.Len
	}
	if total != c.N {
		return fmt.Errorf("core: invalid compressed succession: segment lengths sum to %d, want %d", total, c.N)
	}
	return nil
}

// Decompress regenerates the approximated parameter succession by the
// accumulation recurrence of Eq. 2, in float32 arithmetic exactly as the
// hardware unit computes it, widened to float64 on output. The
// succession is validated first: segments that do not cover exactly N
// parameters yield an error, never a silently wrong-length slice.
func (c *Compressed) Decompress() ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, c.N)
	(&eq2{segs: c.Segments}).fill(out)
	return out, nil
}

// eq2 regenerates a valid compressed succession in index order, any
// number of weights at a time, by the accumulation recurrence of Eq. 2:
// w~_1 = q, w~_j = w~_{j-1} + m, in float32.
type eq2 struct {
	segs   []Segment // segments not yet started
	acc, m float32   // next weight of the current segment, and its step
	left   int       // weights of the current segment not yet emitted
}

// fill writes the next len(dst) regenerated weights, widened to
// float64, into dst.
func (r *eq2) fill(dst []float64) {
	segs, acc, m, left := r.segs, r.acc, r.m, r.left
	for len(dst) > 0 {
		if left == 0 {
			s := segs[0]
			segs, acc, m, left = segs[1:], s.Q, s.M, s.Len
		}
		n := min(left, len(dst))
		for j := range dst[:n] {
			dst[j] = float64(acc)
			acc += m
		}
		left, dst = left-n, dst[n:]
	}
	r.segs, r.acc, r.m, r.left = segs, acc, m, left
}

// CompressedBits returns the storage size of the compressed succession in
// bits under the given storage model.
func (c *Compressed) CompressedBits(sm StorageModel) int {
	return len(c.Segments) * sm.BitsPerSegment()
}

// OriginalBits returns the storage size of the original succession in bits.
func (c *Compressed) OriginalBits() int { return c.N * weightBits }

// CompressionRatio returns original size over compressed size under the
// given storage model. Larger is better; 1 means no gain.
func (c *Compressed) CompressionRatio(sm StorageModel) float64 {
	cb := c.CompressedBits(sm)
	if cb == 0 {
		return 0
	}
	return float64(c.OriginalBits()) / float64(cb)
}

// AvgRunLength returns the mean sub-succession length n/m.
func (c *Compressed) AvgRunLength() float64 {
	if len(c.Segments) == 0 {
		return 0
	}
	return float64(c.N) / float64(len(c.Segments))
}

// Report aggregates the compression-quality metrics of Table II for one
// compressed layer within a larger model.
type Report struct {
	DeltaPct       float64 // tolerance threshold, % of parameter amplitude
	Delta          float64 // absolute tolerance threshold
	CR             float64 // compression ratio of the compressed layer
	WeightedCR     float64 // overall CR weighted over all model parameters
	MemFpReduction float64 // fractional memory-footprint reduction (0..1)
	MSE            float64 // mean squared error original vs approximated
	MaxErr         float64 // max absolute elementwise error
	Segments       int     // number of sub-successions m
	AvgRunLen      float64 // n/m
}

// Assess compresses the layer parameters w at deltaPct (percent of the
// layer amplitude) and computes the Table II metrics. totalParams is the
// full model's parameter count used for the weighted CR; it must be at
// least len(w).
func Assess(w []float64, deltaPct float64, totalParams int, sm StorageModel) (Report, *Compressed, error) {
	if totalParams < len(w) {
		return Report{}, nil, fmt.Errorf("core: totalParams %d < layer size %d", totalParams, len(w))
	}
	c, err := CompressPct(w, deltaPct)
	if err != nil {
		return Report{}, nil, err
	}
	// Regenerate a chunk at a time and accumulate the errors in index
	// order: the same sums as stats.MSE and stats.MaxAbsErr over the
	// decompressed slice, without materializing it.
	var buf [1024]float64
	var sum, maxErr float64
	gen := eq2{segs: c.Segments}
	for off := 0; off < len(w); off += len(buf) {
		approx := buf[:min(len(buf), len(w)-off)]
		gen.fill(approx)
		for j, a := range approx {
			d := w[off+j] - a
			sum += d * d
			if ad := math.Abs(d); ad > maxErr {
				maxErr = ad
			}
		}
	}
	mse := sum / float64(len(w))
	cr := c.CompressionRatio(sm)
	wcr := WeightedCR(cr, len(w), totalParams)
	r := Report{
		DeltaPct:       deltaPct,
		Delta:          c.Delta,
		CR:             cr,
		WeightedCR:     wcr,
		MemFpReduction: MemFootprintReduction(wcr),
		MSE:            mse,
		MaxErr:         maxErr,
		Segments:       len(c.Segments),
		AvgRunLen:      c.AvgRunLength(),
	}
	return r, c, nil
}

// WeightedCR returns the overall model compression ratio when only one
// layer of layerParams parameters (out of totalParams) is compressed at
// ratio layerCR: total original size over total size with the layer
// compressed.
func WeightedCR(layerCR float64, layerParams, totalParams int) float64 {
	if layerCR <= 0 || totalParams == 0 {
		return 0
	}
	rest := float64(totalParams - layerParams)
	compressed := rest + float64(layerParams)/layerCR
	if compressed == 0 {
		return 0
	}
	return float64(totalParams) / compressed
}

// MemFootprintReduction converts an overall compression ratio into the
// fractional memory-footprint reduction of Table II: 1 - 1/WCR.
func MemFootprintReduction(weightedCR float64) float64 {
	if weightedCR <= 0 {
		return 0
	}
	return 1 - 1/weightedCR
}
