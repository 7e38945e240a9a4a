package core

import (
	"math/bits"

	"repro/internal/parallel"
)

// Direction is the monotone direction of a sub-succession.
type Direction int8

// Monotone directions. DirNone marks a segment whose direction was never
// forced: every consecutive step stayed within the tolerance threshold.
const (
	DirNone Direction = iota
	DirUp
	DirDown
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	default:
		return "none"
	}
}

// Run identifies one weakly monotonic sub-succession within a parameter
// stream: the half-open index range [Start, Start+Len) and its direction.
type Run struct {
	Start int
	Len   int
	Dir   Direction
}

// eq1 is the transition table of the Eq. 1 scan, indexed by
// dir<<2 | stepClass(step, delta). Each entry holds the run's next
// direction (the Direction values) in bits 0-1 and, in bit 2, whether
// the step closes the run: a step beyond delta against a forced
// direction. A closed run restarts undirected at the step's right-hand
// element. Class 3 (both bits, only possible for delta < 0) acts as a
// step up, the first case of a branchy scan's switch.
var eq1 = [16]uint8{
	// class: within ±delta, up, down, both
	0, 1, 2, 1, // DirNone
	1, 1, 4, 1, // DirUp
	2, 4, 2, 4, // DirDown
}

// stepClass classifies one step of Eq. 1: bit 0 is set for a step above
// delta, bit 1 for a step below -delta. NaN steps set neither. The
// compiler lowers both comparisons to flag moves, so the class costs no
// branch.
func stepClass(step, delta float64) uint8 {
	var up, down uint8
	if step > delta {
		up = 1
	}
	if step < -delta {
		down = 1
	}
	return up | down<<1
}

// chunked is what every chunk of the chunked Eq. 1 scan and fit reads
// and writes. Chunks are parallel.Fold chunks of grain weights, a
// multiple of 64, so no two chunks share a bitmap word.
type chunked struct {
	w      []float64
	delta  float64
	grain  int
	starts []uint64  // bit i set exactly when a run starts at index i > 0
	offs   []int     // offs[c-1]: index of the first run starting in chunk c >= 1
	segs   []Segment // one per run, filled by fitChunk
}

// chunkScan is the scan of the chunk [lo, hi) or, as the fold's
// accumulator, of [0, hi).
type chunkScan struct {
	lo, hi int
	dir    uint8 // direction after the last step
	runs   int   // runs starting in the range, the run at index 0 included
}

// scanChunk runs the Eq. 1 scan over the steps ending at [lo, hi),
// entering undirected, and writes the chunk's bitmap words. For lo = 0
// that is the true scan; for lo > 0 it is a speculation that resync
// corrects. The loop has no data-dependent branch — each step is one
// table lookup — so weight noise costs no mispredictions.
func scanChunk(a chunked, lo, hi int) chunkScan {
	w, starts := a.w, a.starts
	prev := w[max(lo, 1)-1]
	var dir uint8
	runs := 0
	if lo == 0 {
		runs = 1
	}
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		var word uint64
		for i, end := max(wi<<6, 1), min(wi<<6+64, hi); i < end; i++ {
			cur := w[i]
			e := eq1[(dir<<2|stepClass(cur-prev, a.delta))&15]
			prev, dir = cur, e&3
			word |= uint64(e>>2) << (i & 63)
		}
		starts[wi] = word
		runs += bits.OnesCount64(word)
	}
	return chunkScan{lo: lo, hi: hi, dir: dir, runs: runs}
}

// resync folds chunk r onto the true scan acc of everything before it.
// When acc does not end undirected, r's speculative scan entered in the
// wrong direction: resync rescans r from its first step with the true
// and the speculative state side by side, flipping every start bit the
// two disagree on, until both states coincide — the transitions depend
// only on the state and the step, so from there on the speculative bits
// are right. A chunk whose states never coincide (all steps within
// ±delta, or directions alternating at every step) is rescanned whole,
// so the worst case is one extra sequential pass. resync also records
// where the chunk's segments begin.
func resync(a chunked, acc, r chunkScan) chunkScan {
	a.offs[r.lo/a.grain-1] = acc.runs
	if acc.dir != uint8(DirNone) {
		dir, spec := acc.dir, uint8(DirNone)
		for i := r.lo; i < r.hi && dir != spec; i++ {
			class := stepClass(a.w[i]-a.w[i-1], a.delta)
			e, s := eq1[(dir<<2|class)&15], eq1[(spec<<2|class)&15]
			if e>>2 != s>>2 {
				a.starts[i>>6] ^= 1 << (i & 63)
				r.runs += int(e>>2) - int(s>>2)
			}
			dir, spec = e&3, s&3
		}
		if dir != spec {
			r.dir = dir
		}
	}
	return chunkScan{lo: 0, hi: r.hi, dir: r.dir, runs: acc.runs + r.runs}
}

// scan is the Eq. 1 partition of w (non-empty) in chunks of grain
// weights on up to width goroutines: it fills the run-start bitmap and
// the chunks' first run indices, and returns the number of runs.
func scan(w []float64, delta float64, grain, width int) (chunked, int) {
	a := chunked{w: w, delta: delta, grain: grain,
		starts: make([]uint64, (len(w)+63)/64), offs: make([]int, (len(w)-1)/grain)}
	return a, parallel.Fold(len(w), grain, width, a, scanChunk, resync).runs
}

// runDir is the direction of one run of the scan: no step inside a run
// closes it, so replaying the eq1 transitions over it ends in its
// direction.
func runDir(run []float64, delta float64) Direction {
	var dir uint8
	for i := 1; i < len(run); i++ {
		dir = eq1[(dir<<2|stepClass(run[i]-run[i-1], delta))&15] & 3
	}
	return Direction(dir)
}

// SegmentBounds greedily partitions w into maximal sub-successions that are
// monotonic in the weak sense with tolerance threshold delta (Eq. 1):
// within a segment, every consecutive step either follows the segment's
// direction or deviates from it by at most delta. The direction of a
// segment is fixed by the first step whose magnitude exceeds delta.
//
// With delta = 0 this degenerates to strict-sense monotone segmentation
// (ties allowed in either direction). The runs cover w exactly, in order,
// without overlap. Empty input yields no runs. Compress partitions w by
// the same scan.
func SegmentBounds(w []float64, delta float64) []Run {
	return segmentBounds(w, delta, parallel.Grain, 0)
}

// segmentBounds is SegmentBounds with the scan's chunk size and width.
func segmentBounds(w []float64, delta float64, grain, width int) []Run {
	if len(w) == 0 {
		return nil
	}
	a, n := scan(w, delta, grain, width)
	runs := make([]Run, 0, n)
	start := 0
	for wi, word := range a.starts {
		for ; word != 0; word &= word - 1 {
			end := wi<<6 | bits.TrailingZeros64(word)
			runs = append(runs, Run{Start: start, Len: end - start, Dir: runDir(w[start:end], delta)})
			start = end
		}
	}
	return append(runs, Run{Start: start, Len: len(w) - start, Dir: runDir(w[start:], delta)})
}

// IsWeaklyMonotonic reports whether w is monotonic in the weak sense with
// tolerance threshold delta in the given direction, per Eq. 1. A DirNone
// direction requires every consecutive step to stay within delta.
func IsWeaklyMonotonic(w []float64, delta float64, dir Direction) bool {
	for i := 1; i < len(w); i++ {
		step := w[i] - w[i-1]
		switch dir {
		case DirUp:
			if step < -delta {
				return false
			}
		case DirDown:
			if step > delta {
				return false
			}
		default:
			if step > delta || step < -delta {
				return false
			}
		}
	}
	return true
}

// SegmentLengthHistogram returns counts of run lengths (index = length,
// capped at maxLen with the final bucket accumulating longer runs). Useful
// to inspect how delta grows the average cluster size.
func SegmentLengthHistogram(runs []Run, maxLen int) []int {
	if maxLen < 1 {
		maxLen = 1
	}
	h := make([]int, maxLen+1)
	for _, r := range runs {
		l := r.Len
		if l > maxLen {
			l = maxLen
		}
		h[l]++
	}
	return h
}
