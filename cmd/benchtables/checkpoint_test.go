package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckpointModelResultsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	cp, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.mark("table2"); err != nil {
		t.Fatal(err)
	}
	if err := cp.Store("fig10/LeNet-5", map[string]int{"points": 3}); err != nil {
		t.Fatal(err)
	}

	re, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !re.done["table2"] {
		t.Fatal("completed experiment lost on reload")
	}
	var got map[string]int
	ok, err := re.Load("fig10/LeNet-5", &got)
	if err != nil || !ok || got["points"] != 3 {
		t.Fatalf("model result lost on reload: ok=%v err=%v got=%v", ok, err, got)
	}
}

// TestCheckpointTruncatedIsIgnored pins the crash-safety contract: a
// checkpoint cut off mid-write is detected and ignored — the run starts
// fresh — rather than half-loaded or treated as fatal.
func TestCheckpointTruncatedIsIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	cp, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "table2", "fig2"} {
		if err := cp.mark(name); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(whole) {
		t.Fatalf("saved checkpoint is not valid JSON: %q", whole)
	}

	// Simulate a torn write at every prefix length that breaks the JSON.
	for cut := 1; cut < len(whole); cut++ {
		prefix := whole[:cut]
		if json.Valid(prefix) {
			continue // a valid prefix parses as a complete (older) doc
		}
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := loadCheckpoint(path)
		if err != nil {
			t.Fatalf("cut at %d: truncated checkpoint treated as fatal: %v", cut, err)
		}
		if len(re.done) != 0 || len(re.models) != 0 {
			t.Fatalf("cut at %d: truncated checkpoint half-loaded: done=%v models=%v",
				cut, re.done, re.models)
		}
	}
}

// TestCheckpointLegacyArrayFormat pins that the plain name-array format
// of earlier releases is no longer read: such a file is ignored with a
// warning and the run starts fresh, like any other unparsable checkpoint.
func TestCheckpointLegacyArrayFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(`["fig3","table1"]`), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.done) != 0 || len(cp.models) != 0 {
		t.Fatalf("legacy array half-loaded: done=%v models=%v", cp.done, cp.models)
	}
}

func TestCheckpointSaveLeavesNoDebris(t *testing.T) {
	dir := t.TempDir()
	cp, err := loadCheckpoint(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.mark("fig9"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left after save", e.Name())
		}
	}
}
