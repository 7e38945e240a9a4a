package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The tests run from perfbench/, one level below the repository root.
const (
	specPath   = "../BENCHMARK.json"
	goldenPath = "../" + goldenFile
)

// TestMain caps the heap as the command does, so the VGG-16 run's
// resident set stays near the command's.
func TestMain(m *testing.M) {
	capHeap()
	os.Exit(m.Run())
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// lastLine parses the result line, which must end the output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// runSmall runs a workload at its smallest size — one pass, five planner
// evaluations — and returns the printed output and its result line.
func runSmall(t *testing.T, workload string, trace bool) (result, string) {
	t.Helper()
	rep, err := run(config{workload: workload, seed: goldenSeed, trace: trace, workers: loadWorkers,
		maxEvals: 5, golden: goldenPath, traceOut: filepath.Join(t.TempDir(), "trace.json")})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	return lastLine(t, buf.String()), buf.String()
}

func readBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeclaredMetrics runs every workload untraced and traced and checks
// that exactly the metrics BENCHMARK.json declares print, with their
// units, and that the outputs pass every check at the golden seed.
func TestDeclaredMetrics(t *testing.T) {
	spec := readBenchSpec(t)
	for _, w := range workloads {
		if w.name == "vgg16-stream" && testing.Short() {
			continue // ~1.5 minutes and ~3.5 GB resident under the heap cap
		}
		for trace, declared := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			res, out := runSmall(t, w.name, trace == 1)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: result %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %q", w.name, trace, d.Name, got, d.Unit)
				}
				if !strings.Contains(out, d.Name) {
					t.Errorf("%s trace %d: %s missing from the printed table", w.name, trace, d.Name)
				}
			}
		}
	}
}

// TestCorruptGoldenRowFails alters one committed row and expects the
// run to report the mismatch as its one failure, with a nonzero exit
// code.
func TestCorruptGoldenRowFails(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	const good = "LeNet-5,10,1.86887,overlap,9,37872,"
	if !bytes.Contains(data, []byte(good)) {
		t.Fatalf("golden file lacks row %q", good)
	}
	bad := filepath.Join(t.TempDir(), "overlap.csv")
	if err := os.WriteFile(bad, bytes.Replace(data, []byte(good), []byte("LeNet-5,10,1.86887,overlap,9,37873,"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := run(config{workload: "lenet-stream", seed: goldenSeed, workers: loadWorkers, maxEvals: 1, golden: bad})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 1 || rep.exitCode() != 1 {
		t.Fatalf("corrupted row: correct=%v failed=%d exit %d; want one failure and exit 1: %v",
			rep.Correct, rep.Failed, rep.exitCode(), rep.Failures)
	}
	if !strings.Contains(rep.Failures[0], "LeNet-5,10,overlap") {
		t.Errorf("failure %q does not name the corrupted row", rep.Failures[0])
	}
}

// TestModeledIdenticalAcrossWorkers checks that the modeled outputs do
// not depend on the worker count.
func TestModeledIdenticalAcrossWorkers(t *testing.T) {
	for _, name := range []string{"lenet-plan", "lenet-stream"} {
		var mods []*modeled
		for _, workers := range []int{1, 2} {
			rep, err := run(config{workload: name, seed: 7, workers: workers, maxEvals: 10})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("%s workers %d: %v", name, workers, rep.Failures)
			}
			mods = append(mods, rep.Modeled)
		}
		if !reflect.DeepEqual(mods[0], mods[1]) {
			t.Errorf("%s: modeled outputs differ between 1 and 2 workers:\n%+v\n%+v", name, mods[0], mods[1])
		}
	}
}

// TestTraceFile checks that a traced run writes Chrome trace events
// whose parents are earlier events enclosing them.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	rep, err := run(config{workload: "lenet-stream", seed: goldenSeed, workers: loadWorkers, maxEvals: 1, trace: true,
		golden: goldenPath, traceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run failed: %v", rep.Failures)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, e := range f.TraceEvents {
		names[e.Name] = true
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %d: %+v", i, e)
		}
		p := int(e.Args["parent"].(float64))
		if p < 0 {
			continue
		}
		pe := f.TraceEvents[p]
		if p >= i || e.Ts < pe.Ts || e.Ts+e.Dur > pe.Ts+pe.Dur+1e-3 {
			t.Fatalf("event %d (%s) not inside its parent %d (%s)", i, e.Name, p, pe.Name)
		}
	}
	for _, n := range []string{"setup", "models.build", "pass", "core.compress", "planner.tiles", "accel.serial", "accel.overlap", "accel.tile"} {
		if !names[n] {
			t.Errorf("no %q span", n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := make([]float64, len(base))
	noisy := make([]float64, len(base))
	for i, v := range base {
		faster[i] = v * 0.8
		noisy[i] = v * (0.85 + 0.3*float64(i%2))
	}
	// wide spreads over the bound; every run of below reads lower than
	// every run of wide, by less than wide's interquartile range.
	wide := []float64{10, 13, 10, 13, 10, 13, 10, 13, 10, 13}
	below := []float64{9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"same", base, base, "~"},
		{"faster", base, faster, "better"},
		{"slower", faster, base, "worse"},
		{"noisy", base, noisy, "unresolved"},
		{"few pairs faster", base[:3], faster[:3], "unresolved"},
		{"few pairs slower", faster[:3], base[:3], "unresolved"},
		{"wide spread, every head run better", wide, below, "~"},
		{"wide spread, head runs mixed", wide, append([]float64{10.5}, below[1:]...), "unresolved"},
	} {
		if got, _ := verdict(tc.base, tc.head, "lower", &bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsHostMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		var buf bytes.Buffer
		for i := 0; i < 2; i++ {
			r := &report{Workload: "lenet-stream", Env: stamp{CPU: cpu},
				Metrics: map[string]metric{"wall_s": {1 + float64(i), "s"}}}
			if err := r.print(&buf); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	if err := compareFiles(&out, write("a", "cpu-a"), write("b", "cpu-b"), specPath); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "cpu-b") {
		t.Errorf("no host mismatch warning in:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "wall_s") {
		t.Errorf("no wall_s row in:\n%s", out.String())
	}
}
