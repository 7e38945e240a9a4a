package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestSimulatorGoldens regenerates the committed simulator goldens with
// the default options and compares them byte for byte with results/:
// fig2.csv (LeNet-5 per-layer breakdown) and overlap.csv (serial,
// overlap and overlap+tile schedules across the δ grid). The VGG-16
// rows of overlap.csv take ~10 s and ~3 GB, so -short checks only the
// LeNet-5 rows.
func TestSimulatorGoldens(t *testing.T) {
	t.Run("fig2", func(t *testing.T) {
		_, csv := captureOutput(t, runFig2, experiments.DefaultOptions())
		compareGolden(t, "fig2.csv", csv["fig2.csv"], "")
	})
	t.Run("overlap", func(t *testing.T) {
		opts := experiments.DefaultOptions()
		opts.Models = []string{"LeNet-5", "VGG-16"}
		only := ""
		if testing.Short() {
			opts.Models = opts.Models[:1]
			only = "LeNet-5,"
		}
		_, csv := captureOutput(t, runOverlap, opts)
		compareGolden(t, "overlap.csv", csv["overlap.csv"], only)
	})
}

// compareGolden compares got with results/name. A non-empty rowPrefix
// keeps only the golden's header and the rows starting with it.
func compareGolden(t *testing.T, name string, got []byte, rowPrefix string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	if rowPrefix != "" {
		lines := strings.SplitAfter(string(want), "\n")
		kept := lines[:1]
		for _, l := range lines[1:] {
			if strings.HasPrefix(l, rowPrefix) {
				kept = append(kept, l)
			}
		}
		want = []byte(strings.Join(kept, ""))
	}
	if len(got) == 0 {
		t.Fatalf("%s: nothing written", name)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from results/%s:\n--- got ---\n%s\n--- golden ---\n%s", name, name, got, want)
	}
}
