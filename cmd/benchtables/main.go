// Command benchtables regenerates the paper's tables and figures from the
// simulation platform: Table I (model inventory), Table II (compression
// efficiency), Table III (compression on top of int8 quantization),
// Fig. 2 (LeNet-5 per-layer breakdown), Fig. 3 (weight entropy), Fig. 9
// (layer sensitivity) and Fig. 10 (accuracy vs latency vs energy).
//
// Usage:
//
//	benchtables -experiment all|table1|table2|table3|fig2|fig3|fig9|fig10|faults \
//	            [-models LeNet-5,AlexNet,...] [-probes 8] [-seed 2020] \
//	            [-epochs 10] [-samples 2000] [-fast] [-workers N] \
//	            [-timeout 30m] [-checkpoint run.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Independent work items (models, sweep points, accelerator layers) run
// on -workers goroutines; results are collected by index, so the output
// is byte-identical for every worker count.
//
// -timeout bounds the whole run with a context deadline; -checkpoint
// records completed experiments in a JSON file so an interrupted -all
// run resumes where it stopped instead of redoing finished work. The
// fig10 and faults sweeps additionally checkpoint each finished model,
// so even a single interrupted experiment resumes mid-sweep.
// -cpuprofile/-memprofile write pprof profiles of the run.
//
// The large models (VGG-16, Inception-v3, ResNet50) take minutes and
// hundreds of megabytes each; use -models to restrict a run.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// csvDir, when set by -csv, receives one machine-readable file per
// experiment alongside the human-readable tables on stdout.
var csvDir string

// writeCSV stores rows under csvDir (no-op when -csv is unset). Files
// are published atomically so an interrupted run leaves either the
// previous complete CSV or the new one, never a truncated mix.
func writeCSV(name string, header []string, rows [][]string) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(csvDir, name+".csv"), buf.Bytes(), 0o644)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// checkpointFile tracks which experiments of an -experiment=all run have
// completed, plus per-model intermediate results stored by the heavy
// sweeps (fig10, faults) through the experiments.Checkpoint interface,
// so an interrupted run resumes mid-sweep instead of per experiment. The
// on-disk form is a JSON object {"done": [...], "models": {...}}; the
// legacy plain name-array format from earlier releases is still read.
type checkpointFile struct {
	mu     sync.Mutex
	path   string
	done   map[string]bool
	models map[string]json.RawMessage
}

// checkpointDoc is the on-disk object form.
type checkpointDoc struct {
	Done   []string                   `json:"done"`
	Models map[string]json.RawMessage `json:"models,omitempty"`
}

// loadCheckpoint reads the checkpoint (a missing file is an empty one).
// A file that does not parse — truncated by a crash predating atomic
// writes, or hand-mangled — is detected and ignored with a warning, not
// half-loaded: resuming from scratch is always correct, resuming from a
// partial parse is not.
func loadCheckpoint(path string) (*checkpointFile, error) {
	cp := &checkpointFile{path: path, done: map[string]bool{}, models: map[string]json.RawMessage{}}
	if path == "" {
		return cp, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return cp, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		var doc checkpointDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: checkpoint %s is corrupt (%v); ignoring it and starting fresh\n", path, err)
			return cp, nil
		}
		names = doc.Done
		for k, v := range doc.Models {
			cp.models[k] = v
		}
	}
	for _, n := range names {
		cp.done[n] = true
	}
	return cp, nil
}

// save persists the checkpoint atomically and durably (write-to-temp in
// the same directory, fsync, rename, directory fsync), so a crash — or
// a power cut — mid-write cannot corrupt it. Callers hold cp.mu.
func (cp *checkpointFile) save() error {
	if cp.path == "" {
		return nil
	}
	doc := checkpointDoc{Done: make([]string, 0, len(cp.done)), Models: cp.models}
	for n := range cp.done {
		doc.Done = append(doc.Done, n)
	}
	sort.Strings(doc.Done)
	if len(doc.Models) == 0 {
		doc.Models = nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(cp.path, append(data, '\n'), 0o644)
}

// mark records one completed experiment and persists the checkpoint.
func (cp *checkpointFile) mark(name string) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.done[name] = true
	return cp.save()
}

// Load implements experiments.Checkpoint: per-model sweep results.
func (cp *checkpointFile) Load(key string, out any) (bool, error) {
	cp.mu.Lock()
	raw, ok := cp.models[key]
	cp.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("checkpoint %s: key %q: %w", cp.path, key, err)
	}
	return true, nil
}

// Store implements experiments.Checkpoint.
func (cp *checkpointFile) Store(key string, val any) error {
	raw, err := json.Marshal(val)
	if err != nil {
		return err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.models[key] = raw
	return cp.save()
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "which table/figure to regenerate")
		modelsFlag = flag.String("models", "", "comma-separated model filter (default: the paper's set)")
		probes     = flag.Int("probes", 8, "probe inputs for the top-5 fidelity metric")
		seed       = flag.Int64("seed", 2020, "deterministic seed")
		epochs     = flag.Int("epochs", 10, "LeNet-5 training epochs")
		samples    = flag.Int("samples", 2000, "LeNet-5 training samples")
		fast       = flag.Bool("fast", false, "LeNet-scale smoke run")
		csvOut     = flag.String("csv", "", "also write machine-readable CSVs to this directory")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent workers (output is identical for any value)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
		checkpoint = flag.String("checkpoint", "", "JSON file recording completed experiments and per-model sweep results; resumed runs skip them")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON (open at ui.perfetto.dev) to this file")
		metricsPath  = flag.String("metrics", "", "write the metrics snapshot to this file (.csv extension selects CSV, else text)")
		manifestPath = flag.String("manifest", "", "write a reproducibility manifest (JSON) to this file")
	)
	flag.Parse()
	csvDir = *csvOut

	// The matmul-heavy experiments depend on which saxpy kernel the CPU
	// dispatch picked; record it so runs on different machines compare.
	fmt.Printf("matmul kernel: %s (available: %s; force with VECMM=off|sse2|avx2|fma)\n",
		tensor.MatMulKernel(), strings.Join(tensor.MatMulKernels(), ","))

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.Probes = *probes
	opts.TrainEpochs = *epochs
	opts.TrainSamples = *samples
	opts.Fast = *fast
	if *fast {
		opts = experiments.FastOptions()
		opts.Seed = *seed
	}
	if *modelsFlag != "" {
		opts.Models = strings.Split(*modelsFlag, ",")
	}
	opts.Workers = *workers
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}

	runners := map[string]func(experiments.Options) error{
		"table1":  runTable1,
		"table2":  runTable2,
		"table3":  runTable3,
		"fig2":    runFig2,
		"fig3":    runFig3,
		"fig9":    runFig9,
		"fig10":   runFig10,
		"mixed":   runMixed,
		"overlap": runOverlap,
		"faults":  runFaults,
		"cluster": runCluster,
	}
	order := []string{"table1", "table2", "fig2", "fig3", "fig9", "fig10", "table3", "mixed", "overlap", "faults", "cluster"}

	cp, err := loadCheckpoint(*checkpoint)
	if err != nil {
		fatal(err)
	}
	if *checkpoint != "" {
		// Per-model resume inside the heavy sweeps (fig10, faults): the
		// checkpoint file doubles as the experiments.Checkpoint store.
		opts.Checkpoint = cp
	}
	if *tracePath != "" || *metricsPath != "" || *manifestPath != "" {
		opts.Obs = obs.New()
	}
	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	runErr := runExperiments(*experiment, order, runners, cp, opts)
	stopProf()
	if runErr != nil {
		fatal(runErr)
	}
	if err := writeObsOutputs(opts, *experiment, *tracePath, *metricsPath, *manifestPath); err != nil {
		fatal(err)
	}
}

// writeObsOutputs writes the trace, metrics, and manifest files selected
// by flags after a successful run.
func writeObsOutputs(opts experiments.Options, experiment, tracePath, metricsPath, manifestPath string) error {
	o := opts.Obs
	if o == nil {
		return nil
	}
	writeTo := func(path string, write func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if tracePath != "" {
		if err := writeTo(tracePath, func(f *os.File) error { return o.T().WriteChromeJSON(f) }); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		write := o.M().WriteText
		if strings.HasSuffix(metricsPath, ".csv") {
			write = o.M().WriteCSV
		}
		if err := writeTo(metricsPath, func(f *os.File) error { return write(f) }); err != nil {
			return err
		}
	}
	if manifestPath == "" {
		return nil
	}
	man := &obs.Manifest{
		Tool:             "benchtables",
		Experiment:       experiment,
		Seed:             opts.Seed,
		MatMulKernel:     tensor.MatMulKernel(),
		AvailableKernels: tensor.MatMulKernels(),
		VecmmOverride:    os.Getenv("VECMM"),
		Mesh:             [2]int{opts.Accel.Mesh.Width, opts.Accel.Mesh.Height},
		MemNodes:         opts.Accel.MemNodes,
		MACLanes:         opts.Accel.MACLanes,
		TraceEvents:      o.T().EventCount(),
	}
	return man.WriteFile(manifestPath)
}

// fracPct is the NaN-safe percentage: an empty or aborted run divides by
// zero only on paper — here it reports 0.
func fracPct(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * part / total
}

// ratio is the NaN-safe normalization used by the figure tables.
func ratio(v, max float64) float64 {
	if max == 0 {
		return 0
	}
	return v / max
}

// runExperiments dispatches -experiment (either "all" with checkpoint
// skipping, or a single named experiment).
func runExperiments(experiment string, order []string, runners map[string]func(experiments.Options) error, cp *checkpointFile, opts experiments.Options) error {
	if experiment == "all" {
		for _, name := range order {
			if cp.done[name] {
				fmt.Printf("\n=== %s: done (checkpointed), skipping ===\n", name)
				continue
			}
			if err := runners[name](opts); err != nil {
				return err
			}
			if err := cp.mark(name); err != nil {
				return err
			}
		}
		return nil
	}
	run, ok := runners[experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want all, %s)", experiment, strings.Join(order, ", "))
	}
	return run(opts)
}

// startProfiles starts the optional CPU profile and returns a stop
// function that finishes it and writes the optional heap profile.
// Profiles are written on normal completion, not after a fatal exit.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables: heap profile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // flush recently freed objects so live-heap numbers are clean
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables: heap profile:", err)
		}
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtables:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runTable1(opts experiments.Options) error {
	rows, err := experiments.Table1(opts)
	if err != nil {
		return err
	}
	header("Table I: selected layers (measured vs paper)")
	fmt.Printf("%-14s %12s %10s %-12s %-5s %9s %7s\n",
		"model", "params", "paper(k)", "layer", "type", "fraction", "paper")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-14s %12d %10d %-12s %-5s %8.1f%% %6.0f%%\n",
			r.Model, r.Params, r.PaperParamsK, r.Layer, r.Kind,
			100*r.Fraction, 100*r.PaperFraction)
		recs = append(recs, []string{r.Model, strconv.Itoa(r.Params), r.Layer, r.Kind,
			ftoa(r.Fraction), ftoa(r.PaperFraction)})
	}
	return writeCSV("table1", []string{"model", "params", "layer", "kind", "fraction", "paper_fraction"}, recs)
}

// paperTable2 holds the published CR columns for side-by-side printing.
var paperTable2 = map[string]map[float64][2]float64{ // model -> delta -> {CR, weightedCR}
	"LeNet-5":      {0: {1.21, 1.17}, 5: {1.38, 1.30}, 10: {1.74, 1.58}, 15: {2.50, 2.17}, 20: {4.02, 3.36}},
	"AlexNet":      {0: {1.21, 1.15}, 5: {1.51, 1.35}, 10: {2.38, 1.97}, 15: {4.77, 3.63}, 20: {11.44, 8.28}},
	"VGG-16":       {0: {1.21, 1.16}, 2: {1.43, 1.32}, 4: {1.94, 1.70}, 6: {3.04, 2.51}, 8: {5.28, 4.18}},
	"MobileNet":    {0: {1.21, 1.05}, 2: {1.42, 1.10}, 4: {1.87, 1.21}, 6: {2.74, 1.42}, 8: {4.31, 1.80}},
	"Inception-v3": {0: {1.22, 1.02}, 5: {1.65, 1.06}, 10: {2.82, 1.16}, 15: {5.46, 1.38}, 20: {11.42, 1.89}},
	"ResNet50":     {0: {1.21, 1.02}, 2: {1.76, 1.06}, 4: {3.31, 1.18}, 6: {6.57, 1.45}, 8: {12.79, 1.94}},
}

func runTable2(opts experiments.Options) error {
	rows, err := experiments.Table2(opts)
	if err != nil {
		return err
	}
	header("Table II: compression efficiency (measured vs paper)")
	fmt.Printf("%-14s %6s %8s %8s %8s %8s %8s %10s\n",
		"model", "delta", "CR", "paper", "wCR", "paper", "memfp", "MSE")
	var recs [][]string
	for _, r := range rows {
		p := paperTable2[r.Model][r.DeltaPct]
		fmt.Printf("%-14s %5.0f%% %8.2f %8.2f %8.2f %8.2f %7.0f%% %10.2e\n",
			r.Model, r.DeltaPct, r.CR, p[0], r.WeightedCR, p[1],
			100*r.MemFpReduction, r.MSE)
		recs = append(recs, []string{r.Model, ftoa(r.DeltaPct), ftoa(r.CR), ftoa(p[0]),
			ftoa(r.WeightedCR), ftoa(p[1]), ftoa(r.MemFpReduction), ftoa(r.MSE)})
	}
	return writeCSV("table2", []string{"model", "delta_pct", "cr", "paper_cr", "wcr", "paper_wcr", "memfp_reduction", "mse"}, recs)
}

func runTable3(opts experiments.Options) error {
	rows, err := experiments.Table3(opts)
	if err != nil {
		return err
	}
	header("Table III: compression on top of int8 quantization")
	fmt.Printf("%-14s %8s %8s %6s %8s %9s\n",
		"model", "QT wCR", "QT acc", "delta", "wCR", "accuracy")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-14s %8.2f %8.4f %5.0f%% %8.2f %9.4f\n",
			r.Model, r.QTCR, r.QTAccuracy, r.DeltaPct, r.WeightedCR, r.Accuracy)
		recs = append(recs, []string{r.Model, ftoa(r.QTCR), ftoa(r.QTAccuracy),
			ftoa(r.DeltaPct), ftoa(r.WeightedCR), ftoa(r.Accuracy)})
	}
	return writeCSV("table3", []string{"model", "qt_wcr", "qt_accuracy", "delta_pct", "wcr", "accuracy"}, recs)
}

func runFig2(opts experiments.Options) error {
	rows, err := experiments.Fig2(opts)
	if err != nil {
		return err
	}
	header("Fig. 2: LeNet-5 per-layer latency and energy breakdown")
	var maxCyc uint64
	var maxE float64
	for _, r := range rows {
		if r.Cycles > maxCyc {
			maxCyc = r.Cycles
		}
		if e := r.Energy.Total(); e > maxE {
			maxE = e
		}
	}
	fmt.Printf("%-10s %8s | %-30s | %-42s\n", "layer", "norm", "latency breakdown", "energy breakdown (dyn+leak)")
	for _, r := range rows {
		lt := r.Latency
		total := float64(lt.Total())
		e := r.Energy
		et := e.Total()
		fmt.Printf("%-10s %8.3f | mem %4.0f%% comm %4.0f%% comp %4.0f%% | comm %4.1f%% compute %4.1f%% local %4.1f%% main %5.1f%% (Enorm %.3f)\n",
			r.Layer, ratio(float64(r.Cycles), float64(maxCyc)),
			fracPct(float64(lt.Memory), total),
			fracPct(float64(lt.Communication), total),
			fracPct(float64(lt.Computation), total),
			fracPct(e.CommDyn+e.CommLeak, et),
			fracPct(e.CompDyn+e.CompLeak, et),
			fracPct(e.LocalDyn+e.LocalLeak, et),
			fracPct(e.MainDyn+e.MainLeak, et),
			ratio(et, maxE))
	}
	var recs [][]string
	for _, r := range rows {
		e := r.Energy
		recs = append(recs, []string{r.Layer, r.Kind, strconv.FormatUint(r.Cycles, 10),
			strconv.FormatUint(r.Latency.Memory, 10),
			strconv.FormatUint(r.Latency.Communication, 10),
			strconv.FormatUint(r.Latency.Computation, 10),
			ftoa(e.CommDyn), ftoa(e.CommLeak), ftoa(e.CompDyn), ftoa(e.CompLeak),
			ftoa(e.LocalDyn), ftoa(e.LocalLeak), ftoa(e.MainDyn), ftoa(e.MainLeak)})
	}
	return writeCSV("fig2", []string{"layer", "kind", "cycles", "lat_mem", "lat_comm", "lat_comp",
		"e_comm_dyn", "e_comm_leak", "e_comp_dyn", "e_comp_leak",
		"e_local_dyn", "e_local_leak", "e_main_dyn", "e_main_leak"}, recs)
}

func runFig3(opts experiments.Options) error {
	rows, err := experiments.Fig3(opts)
	if err != nil {
		return err
	}
	header("Fig. 3: entropy of weight streams vs random and text (bits/byte)")
	var recs [][]string
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.EntropyBits*6))
		fmt.Printf("%-14s %6.3f  %s\n", r.Corpus, r.EntropyBits, bar)
		recs = append(recs, []string{r.Corpus, strconv.Itoa(r.Bytes), ftoa(r.EntropyBits)})
	}
	return writeCSV("fig3", []string{"corpus", "bytes", "entropy_bits_per_byte"}, recs)
}

func runFig9(opts experiments.Options) error {
	rows, err := experiments.Fig9(opts)
	if err != nil {
		return err
	}
	header("Fig. 9: per-layer sensitivity (absolute | per-parameter density)")
	var recs [][]string
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.PerParam*40))
		fmt.Printf("%-14s %-14s abs %6.3f  density %6.3f  %s\n",
			r.Model, r.Layer, r.Sensitivity, r.PerParam, bar)
		recs = append(recs, []string{r.Model, r.Layer, r.Kind,
			strconv.Itoa(r.Params), ftoa(r.Sensitivity), ftoa(r.PerParam)})
	}
	return writeCSV("fig9", []string{"model", "layer", "kind", "params", "sensitivity", "sensitivity_per_param"}, recs)
}

func runFig10(opts experiments.Options) error {
	pts, err := experiments.Fig10(opts)
	if err != nil {
		return err
	}
	header("Fig. 10: accuracy vs inference latency vs inference energy")
	fmt.Printf("%-14s %-7s %9s %9s %9s | %-26s\n",
		"model", "config", "accuracy", "latency", "energy", "energy split main/comm/comp/local")
	for _, p := range pts {
		e := p.Energy
		et := e.Total()
		fmt.Printf("%-14s %-7s %9.4f %9.3f %9.3f | %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
			p.Model, p.Config, p.Accuracy, p.LatencyNorm, p.EnergyNorm,
			fracPct(e.MainDyn+e.MainLeak, et),
			fracPct(e.CommDyn+e.CommLeak, et),
			fracPct(e.CompDyn+e.CompLeak, et),
			fracPct(e.LocalDyn+e.LocalLeak, et))
	}
	var recs [][]string
	for _, p := range pts {
		e := p.Energy
		recs = append(recs, []string{p.Model, p.Config, ftoa(p.DeltaPct), ftoa(p.Accuracy),
			strconv.FormatUint(p.Cycles, 10), ftoa(p.LatencyNorm), ftoa(p.EnergyNorm),
			ftoa(e.MainDyn + e.MainLeak), ftoa(e.CommDyn + e.CommLeak),
			ftoa(e.CompDyn + e.CompLeak), ftoa(e.LocalDyn + e.LocalLeak)})
	}
	return writeCSV("fig10", []string{"model", "config", "delta_pct", "accuracy", "cycles",
		"latency_norm", "energy_norm", "e_main", "e_comm", "e_comp", "e_local"}, recs)
}

func runMixed(opts experiments.Options) error {
	pts, err := experiments.MixedCodec(opts)
	if err != nil {
		return err
	}
	header("Mixed-codec sweep: CR vs accuracy vs latency/energy across the codec arena")
	fmt.Printf("%-14s %-14s %-10s %6s %6s %9s %9s %9s %9s %7s\n",
		"model", "config", "codec", "level", "layers", "wcr", "accuracy", "latency", "energy", "pareto")
	var recs [][]string
	for _, p := range pts {
		pareto := ""
		if p.Pareto {
			pareto = "*"
		}
		fmt.Printf("%-14s %-14s %-10s %6g %6d %9.3f %9.4f %9.3f %9.3f %7s\n",
			p.Model, p.Config, p.Codec, p.Level, p.Layers,
			p.WeightedCR, p.Accuracy, p.LatencyNorm, p.EnergyNorm, pareto)
		recs = append(recs, []string{p.Model, p.Config, p.Codec, ftoa(p.Level), ftoa(p.Budget),
			strconv.Itoa(p.Layers), ftoa(p.WeightedCR), ftoa(p.Accuracy),
			strconv.FormatUint(p.Cycles, 10), ftoa(p.LatencyNorm), ftoa(p.EnergyNorm),
			strconv.FormatBool(p.Pareto)})
	}
	return writeCSV("mixed", []string{"model", "config", "codec", "level", "budget",
		"layers", "wcr", "accuracy", "cycles", "latency_norm", "energy_norm", "pareto"}, recs)
}

func runOverlap(opts experiments.Options) error {
	pts, err := experiments.OverlapSweep(opts)
	if err != nil {
		return err
	}
	header("Overlap sweep: latency/energy vs compression ratio, serial vs streaming schedules")
	fmt.Printf("%-14s %6s %7s %-13s %7s %10s %8s %10s %8s %7s\n",
		"model", "delta", "cr", "mode", "rounds", "cycles", "stall", "energy(uJ)", "speedup", "pareto")
	var recs [][]string
	for _, p := range pts {
		pareto := ""
		if p.Pareto {
			pareto = "*"
		}
		fmt.Printf("%-14s %6g %7.2f %-13s %7d %10d %8d %10.3f %8.3f %7s\n",
			p.Model, p.Delta, p.CR, p.Mode, p.Rounds, p.Cycles, p.DecodeStall,
			p.EnergyUJ, p.Speedup, pareto)
		recs = append(recs, []string{p.Model, ftoa(p.Delta), ftoa(p.CR), p.Mode,
			strconv.Itoa(p.Rounds), strconv.FormatUint(p.Cycles, 10),
			strconv.FormatUint(p.DecodeStall, 10), ftoa(p.EnergyUJ),
			ftoa(p.Speedup), strconv.FormatBool(p.Pareto)})
	}
	return writeCSV("overlap", []string{"model", "delta_pct", "cr", "mode", "rounds",
		"cycles", "decode_stall", "energy_uj", "speedup", "pareto"}, recs)
}

func runFaults(opts experiments.Options) error {
	rows, err := experiments.FaultSweep(opts)
	if err != nil {
		return err
	}
	header("Fault sweep: accuracy vs DRAM word-flip rate, raw vs compressed stream")
	fmt.Printf("%-14s %-10s %9s %6s %9s %7s %9s %9s %9s\n",
		"model", "stream", "rate", "delta", "words", "flips", "detected", "baseline", "accuracy")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-14s %-10s %9.2g %5.0f%% %9d %7d %9d %9.4f %9.4f\n",
			r.Model, r.Stream, r.Rate, r.DeltaPct, r.Words, r.Flips, r.Detected,
			r.Baseline, r.Accuracy)
		recs = append(recs, []string{r.Model, r.Stream, ftoa(r.Rate), ftoa(r.DeltaPct),
			strconv.Itoa(r.Words), strconv.Itoa(r.Flips), strconv.Itoa(r.Detected),
			ftoa(r.Baseline), ftoa(r.Accuracy)})
	}
	return writeCSV("faults", []string{"model", "stream", "rate", "delta_pct",
		"words", "flips", "detected", "baseline", "accuracy"}, recs)
}

func runCluster(opts experiments.Options) error {
	rows, err := experiments.ClusterFaultSweep(opts)
	if err != nil {
		return err
	}
	header("Cluster fault sweep: availability and latency under chaos during a weight-version rollout")
	fmt.Printf("%-14s %-15s %6s %7s %7s %7s %6s %6s %6s %7s %6s %-11s %7s\n",
		"model", "scenario", "drop", "avail", "p50", "p99", "served", "failed", "stale", "reduced", "fover", "epoch", "leaders")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-14s %-15s %6.2f %7.3f %7d %7d %6d %6d %6d %7d %6d %-11s %7d\n",
			r.Model, r.Scenario, r.DropRate, r.Availability, r.P50, r.P99,
			r.Served, r.Failed, r.ServedStale, r.ReducedReplica, r.FailedOver,
			r.EpochOutcome, r.LeaderChanges)
		recs = append(recs, []string{r.Model, r.Scenario, ftoa(r.DropRate), ftoa(r.Availability),
			strconv.FormatUint(r.P50, 10), strconv.FormatUint(r.P99, 10),
			strconv.Itoa(r.Served), strconv.Itoa(r.Failed), strconv.Itoa(r.ServedStale),
			strconv.Itoa(r.ReducedReplica), strconv.Itoa(r.FailedOver),
			strconv.Itoa(r.MixedVersion), r.EpochOutcome, strconv.Itoa(r.LeaderChanges)})
	}
	return writeCSV("cluster", []string{"model", "scenario", "drop_rate", "availability",
		"p50_ticks", "p99_ticks", "served", "failed", "served_stale", "reduced_replica",
		"failed_over", "mixed_version", "epoch_outcome", "leader_changes"}, recs)
}
