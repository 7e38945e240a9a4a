package core

import "math/bits"

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

// scanRuns is the Eq. 1 partition of w (non-empty): it overwrites the
// (len(w)+63)/64 words of starts so that bit i is set exactly when a
// run starts at index i > 0, and returns the number of runs. The loop
// has no data-dependent branch — each step is one table lookup — so
// weight noise costs no mispredictions.
func scanRuns(w []float64, delta float64, starts []uint64) int {
	runs := 1
	prev := w[0]
	var dir uint8
	for wi := range starts {
		lo, hi := wi<<6, min(wi<<6+64, len(w))
		var word uint64
		for i := max(lo, 1); i < hi; i++ {
			cur := w[i]
			e := eq1[(dir<<2|stepClass(cur-prev, delta))&15]
			prev, dir = cur, e&3
			word |= uint64(e>>2) << (i & 63)
		}
		starts[wi] = word
		runs += bits.OnesCount64(word)
	}
	return runs
}

// runDir is the direction of one run of scanRuns: no step inside a run
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
	if len(w) == 0 {
		return nil
	}
	starts := make([]uint64, (len(w)+63)/64)
	runs := make([]Run, 0, scanRuns(w, delta, starts))
	start := 0
	for wi, word := range starts {
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
