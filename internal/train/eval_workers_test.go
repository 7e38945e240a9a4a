package train

import (
	"testing"

	"repro/internal/dataset"
)

// TestWorkersVariantsMatchSerial pins the sharded batch evaluation to the
// serial results, bit-for-bit, across worker counts (including workers >
// samples). Integer agreement counts are exact by construction; overlap
// values are reduced serially in index order.
func TestWorkersVariantsMatchSerial(t *testing.T) {
	g := tinyMLP(t)
	samples, err := dataset.Digits(23, 9)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := dataset.SyntheticImages(11, dataset.DigitSize, dataset.DigitSize, 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFidelity(g, imgs, 5)
	if err != nil {
		t.Fatal(err)
	}
	acts := cachedActs(t, g, imgs)

	wantAcc, err := Accuracy(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	wantTop3, err := TopKAccuracy(g, samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantScore, err := f.Score(g, imgs)
	if err != nil {
		t.Fatal(err)
	}
	wantOverlap, err := f.Overlap(g, imgs)
	if err != nil {
		t.Fatal(err)
	}
	wantScoreFrom, err := f.ScoreFrom(g, acts, "fc2")
	if err != nil {
		t.Fatal(err)
	}
	wantOverlapFrom, err := f.OverlapFrom(g, acts, "fc2")
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 64} {
		check := func(label string, got float64, err error, want float64) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s(workers=%d): %v", label, workers, err)
			}
			if got != want {
				t.Errorf("%s(workers=%d) = %v, want %v", label, workers, got, want)
			}
		}
		acc, err := AccuracyWorkers(g, samples, workers)
		check("AccuracyWorkers", acc, err, wantAcc)
		top3, err := TopKAccuracyWorkers(g, samples, 3, workers)
		check("TopKAccuracyWorkers", top3, err, wantTop3)
		score, err := f.ScoreWorkers(g, imgs, workers)
		check("ScoreWorkers", score, err, wantScore)
		overlap, err := f.OverlapWorkers(g, imgs, workers)
		check("OverlapWorkers", overlap, err, wantOverlap)
		scoreFrom, err := f.ScoreFromWorkers(g, acts, "fc2", workers)
		check("ScoreFromWorkers", scoreFrom, err, wantScoreFrom)
		overlapFrom, err := f.OverlapFromWorkers(g, acts, "fc2", workers)
		check("OverlapFromWorkers", overlapFrom, err, wantOverlapFrom)
	}

	// Mismatched lengths must error through the workers paths too.
	if _, err := f.ScoreWorkers(g, imgs[:3], 2); err == nil {
		t.Error("ScoreWorkers accepted mismatched probe count")
	}
	if _, err := f.OverlapFromWorkers(g, acts[:3], "fc2", 2); err == nil {
		t.Error("OverlapFromWorkers accepted mismatched activation count")
	}
}
