// Command perfbench is the repository's end-to-end benchmark. It drives
// the compress → plan → simulate → report path from outside the
// program, through the public functions of models, core/codecs, train,
// planner and accel, checks the outputs, and prints every metric by
// name with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, measured from spans the
// benchmark records around each call into a layer and written out as a
// Chrome trace-event file that Perfetto loads. Run it from the
// repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload lenet-stream --seed 2020 --seconds 10 --trace 0
//
// -compare A B reads two files of saved outputs and compares them
// metric by metric (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// heapLimit caps the Go heap unless GOMEMLIMIT says otherwise: the
// VGG-16 workload allocates ~5 GB per pass, and without the cap its
// resident set grows past 5 GB on a host whose memory is shared. The
// stamp records the limit in force, so runs made under different limits
// do not compare silently.
const heapLimit = 3 << 30

func capHeap() {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(heapLimit)
	}
}

func main() {
	capHeap()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the command and returns its exit code: 0 when every output
// check passed, 1 when one failed, 2 when the run could not be made.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{workers: loadWorkers, maxEvals: planMaxEvals}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: lenet-plan, lenet-stream or vgg16-stream")
	fs.Int64Var(&cfg.seed, "seed", goldenSeed, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured passes run")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	compare := fs.Bool("compare", false, "compare the results saved in the two file arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.golden = goldenFile
	cfg.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", cfg.workload, cfg.seed)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return rep.exitCode()
}

// exitCode is 0 when every operation and output check passed and 1
// otherwise.
func (r *report) exitCode() int {
	if !r.Correct {
		return 1
	}
	return 0
}

// loadWorkers is the goroutine count of the simulator's layer pool and
// the sharded accuracy evaluation: one process loads at most the two
// CPUs of the host the bounds were set on.
const loadWorkers = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	maxEvals int    // lenet-plan planner bound
	golden   string // committed overlap sweep the stream rows must match at goldenSeed
	traceOut string // span file of a traced run
}

// bench is the state the workloads share with the run: the seed, the
// load, the tracer of a traced pass, and the tally of operations and
// output checks.
type bench struct {
	seed     int64
	workers  int
	maxEvals int
	tr       *tracer // nil outside traced passes

	attempted, failed int
	failures          []string
}

// check counts one output check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// call makes one call into a layer of the program, inside a span named
// after it, and counts it as an operation.
func call[T any](b *bench, name string, f func() (T, error)) (T, error) {
	id := b.tr.begin(name)
	v, err := f()
	b.tr.end(id)
	return v, b.op(name, err)
}

// callAlloc is call with the span's heap allocation recorded.
func callAlloc[T any](b *bench, name string, f func() (T, error)) (T, error) {
	id := b.tr.beginAlloc(name)
	v, err := f()
	b.tr.end(id)
	return v, b.op(name, err)
}

func (b *bench) op(name string, err error) error {
	b.attempted++
	if err == nil {
		return nil
	}
	b.failed++
	err = fmt.Errorf("%s: %w", name, err)
	b.failures = append(b.failures, err.Error())
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Workers   int               `json:"workers"`
	Passes    int               `json:"passes"`
	Env       stamp             `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	ErrorRate float64           `json:"error_rate"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Modeled is every modeled output of the run; a host-only change
	// must leave it identical.
	Modeled *modeled `json:"modeled,omitempty"`
}

// A run repeats set-up at least setupMinReps times and for at least
// setupMinTime; setup_s is the median. LeNet-5's stream set-up takes
// ~1 ms, and its median over a fraction of a second swung by a third
// between runs; repeating it for seconds samples the host's speed over a
// longer window.
const (
	setupMinReps = 3
	setupMinTime = 2 * time.Second
)

// passStat is one measured pass.
type passStat struct {
	wall   time.Duration
	alloc  uint64
	traced bool
	spans  spanTotals
}

// run sets the workload up several times, then repeats measured passes
// until cfg.seconds have passed, and checks and reports the outputs.
// Traced runs alternate untraced and traced passes, so that the tracing
// overhead is measured within one process.
func run(cfg config) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.workers < 1 || cfg.maxEvals < 1 {
		return nil, fmt.Errorf("workers %d and max-evals %d must be at least 1", cfg.workers, cfg.maxEvals)
	}
	b := &bench{seed: cfg.seed, workers: cfg.workers, maxEvals: cfg.maxEvals}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := &report{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Workers: cfg.workers, Env: newStamp()}

	var inst *instance
	var setupSecs []float64
	var setupSpans []spanTotals
	b.tr = tr
	setupStart := time.Now()
	for i := 0; i < setupMinReps || time.Since(setupStart) < setupMinTime; i++ {
		inst = nil // let the previous set-up's model go before building the next
		runtime.GC()
		mark := tr.mark()
		id := tr.begin("setup")
		t0 := time.Now()
		inst, err = w.setup(b)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return rep.finish(b, nil, nil), nil
		}
		setupSecs = append(setupSecs, d.Seconds())
		setupSpans = append(setupSpans, tr.totals(mark))
	}
	runtime.GC()

	var passes []passStat
	var outs []*modeled
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		b.tr = nil
		if traced {
			b.tr = tr
		}
		mark := tr.mark()
		id := b.tr.begin("pass")
		a0 := totalAlloc()
		t0 := time.Now()
		out, err := inst.pass()
		wall := time.Since(t0)
		alloc := totalAlloc() - a0
		b.tr.end(id)
		if err != nil {
			b.check(false, "pass %d: %v", i, err)
			break
		}
		ps := passStat{wall: wall, alloc: alloc, traced: traced}
		if traced {
			ps.spans = tr.totals(mark)
		}
		passes = append(passes, ps)
		outs = append(outs, out)
		// Stop when another pass like the last would overrun the run.
		if len(passes) >= minPasses && time.Since(start)+wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	b.tr = nil
	rep.Passes = len(passes)
	if len(outs) == 0 {
		return rep.finish(b, nil, nil), nil
	}
	mod := outs[0]
	for i, o := range outs[1:] {
		b.check(reflect.DeepEqual(o, mod), "pass %d modeled outputs differ from pass 0", i+1)
	}
	if len(mod.Rows) > 0 && cfg.seed == goldenSeed {
		checkGolden(b, cfg.golden, mod.Rows)
	}
	if inst.score != nil {
		if mod.Accuracy, err = inst.score(); err != nil {
			b.op("score", err)
			return rep.finish(b, nil, nil), nil
		}
	}
	if cfg.trace {
		rep.Metrics = layerMetrics(setupSpans, passes, mod)
		if err := tr.writeChrome(cfg.traceOut); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = endToEndMetrics(setupSecs, passes, mod)
	}
	return rep.finish(b, mod, rep.Metrics), nil
}

// finish records the tally of operations and checks.
func (r *report) finish(b *bench, mod *modeled, metrics map[string]metric) *report {
	r.Modeled = mod
	r.Metrics = metrics
	r.Attempted = b.attempted
	r.Failed = b.failed
	if r.Attempted == 0 || metrics == nil {
		r.Attempted++ // the run itself, which did not complete
		r.Failed++
		r.Failures = append(r.Failures, "run did not complete")
	}
	r.Failures = append(b.failures, r.Failures...)
	r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
	return r
}

// passValues maps f over the traced or the untraced passes.
func passValues(ps []passStat, traced bool, f func(passStat) float64) []float64 {
	var out []float64
	for _, p := range ps {
		if p.traced == traced {
			out = append(out, f(p))
		}
	}
	return out
}

// endToEndMetrics are the metrics of an untraced run.
func endToEndMetrics(setupSecs []float64, ps []passStat, m *modeled) map[string]metric {
	return map[string]metric{
		"setup_s":           {median(setupSecs), "s"},
		"wall_s":            {median(passValues(ps, false, func(p passStat) float64 { return p.wall.Seconds() })), "s"},
		"alloc_mb":          {median(passValues(ps, false, func(p passStat) float64 { return float64(p.alloc) / 1e6 })), "MB"},
		"sim_cycles":        {float64(m.SimCycles), "cycles"},
		"sim_energy_uj":     {m.EnergyUJ, "uJ"},
		"compression_ratio": {m.CR, "x"},
		"accuracy":          {m.Accuracy, "fraction"},
	}
}

// print writes the metrics as a table, then the full record line that
// -compare reads, then the result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v workers=%d passes=%d host=%q go=%s rev=%s dirty=%s\n",
		r.Workload, r.Seed, r.Trace, r.Workers, r.Passes, r.Env.CPU, r.Env.GoVersion, r.Env.GitRev, r.Env.GitDirty)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %18.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-34s %18.6g %s (%d of %d operations and checks failed)\n", "error_rate", r.ErrorRate, "fraction", r.Failed, r.Attempted)
	rec, err := json.Marshal(map[string]*report{"record": r})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, res)
	return err
}
