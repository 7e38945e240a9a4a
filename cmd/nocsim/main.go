// Command nocsim runs one model inference on the NoC-based accelerator
// simulator and prints the latency and energy breakdowns, optionally with
// the selected layer compressed at a given delta.
//
// Usage:
//
//	nocsim -model LeNet-5                 # original network
//	nocsim -model LeNet-5 -delta 15       # compressed selected layer
//	nocsim -model AlexNet -delta 20 -layers
//	nocsim -model LeNet-5 -link-fault-rate 1e-4 -retries 8
//	nocsim -model LeNet-5 -dead-links 5-6,6-5
//	nocsim -model LeNet-5 -trace out.json      # Perfetto-loadable trace
//	nocsim -model LeNet-5 -metrics m.txt -manifest run.json
//
// Layers are simulated concurrently on -workers goroutines; the results
// are collected in layer order, so every worker count prints the same
// numbers. The -trace/-trace-csv/-metrics/-manifest outputs are equally
// deterministic: byte-identical at any -workers value (see internal/obs).
//
// The fault flags inject deterministic transient link corruption
// (recovered by checksum-triggered retransmission, whose traffic shows
// up in the latency/energy totals) and stuck-at dead links (avoided at
// route time). -timeout bounds the whole run with a context deadline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/tensor"
)

// parseDeadLinks parses "5-6,6-5" into unidirectional link pairs.
func parseDeadLinks(s string) ([]faults.Link, error) {
	if s == "" {
		return nil, nil
	}
	var links []faults.Link
	for _, part := range strings.Split(s, ",") {
		var l faults.Link
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d-%d", &l.From, &l.To); err != nil {
			return nil, fmt.Errorf("bad dead link %q (want from-to)", part)
		}
		links = append(links, l)
	}
	return links, nil
}

func main() {
	var (
		modelName = flag.String("model", "LeNet-5", "model to simulate")
		delta     = flag.Float64("delta", -1, "compress the selected layer at this delta %% (negative = original)")
		seed      = flag.Int64("seed", 2020, "model weight seed")
		weights   = flag.String("weights", "", "load trained weights (.nnwt from cmd/trainer)")
		perLayer  = flag.Bool("layers", false, "print per-layer results")
		overlap   = flag.Bool("overlap", false, "streaming mode: overlap decompression with compute and pipeline DRAM bursts")
		tile      = flag.Bool("tile", false, "run the overlap-aware tile-shape planner pass (implies -overlap)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent layer simulations (output is identical for any value)")
		timeout   = flag.Duration("timeout", 0, "abort the simulation after this long (0 = no deadline)")
		faultSeed = flag.Int64("fault-seed", 2020, "seed for the deterministic fault injector")
		linkRate  = flag.Float64("link-fault-rate", 0, "per-link-traversal flit corruption probability")
		deadLinks = flag.String("dead-links", "", "comma-separated stuck-at links, e.g. 5-6,6-5")
		retries   = flag.Int("retries", 0, "retransmission budget per packet (0 = default)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")

		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON (open at ui.perfetto.dev) to this file")
		traceCSV     = flag.String("trace-csv", "", "write the trace as a flat CSV timeline to this file")
		metricsPath  = flag.String("metrics", "", "write the metrics snapshot to this file (.csv extension selects CSV, else text)")
		manifestPath = flag.String("manifest", "", "write a reproducibility manifest (JSON) to this file")
		printKernel  = flag.Bool("print-kernel", false, "print the matmul kernel dispatch decision and exit")
	)
	flag.Parse()

	if *printKernel {
		fmt.Printf("kernel=%s available=%s\n", tensor.MatMulKernel(), strings.Join(tensor.MatMulKernels(), ","))
		return
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	b, err := models.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	m, err := b.Build(*seed)
	if err != nil {
		fatal(err)
	}
	if *weights != "" {
		f, err := os.Open(*weights)
		if err != nil {
			fatal(err)
		}
		if err := nn.LoadWeights(f, m.Graph); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
	}
	var compressed map[string]*core.Compressed
	var codecPlan []obs.CodecAssignment
	if *delta >= 0 {
		w, err := m.SelectedWeights()
		if err != nil {
			fatal(err)
		}
		c, err := core.CompressPct(w, *delta)
		if err != nil {
			fatal(err)
		}
		compressed = map[string]*core.Compressed{m.SelectedLayer: c}
		codecPlan = []obs.CodecAssignment{{Layer: m.SelectedLayer, Codec: fmt.Sprintf("segment@%.3g%%", *delta)}}
		fmt.Printf("compressed %s at delta %.3g%%: CR %.2f\n",
			m.SelectedLayer, *delta, c.CompressionRatio(core.DefaultStorage))
	}
	specs, err := accel.SpecsFromModel(m, compressed, core.DefaultStorage)
	if err != nil {
		fatal(err)
	}
	cfg := accel.DefaultConfig()
	dead, err := parseDeadLinks(*deadLinks)
	if err != nil {
		fatal(err)
	}
	cfg.Mesh.Faults = faults.Model{
		Seed:         *faultSeed,
		LinkFlitRate: *linkRate,
		DeadLinks:    dead,
	}
	cfg.Mesh.MaxRetries = *retries
	cfg.Overlap = *overlap || *tile
	if *tile {
		tiled, plan, err := planner.PlanTiles(cfg, specs)
		if err != nil {
			fatal(err)
		}
		specs = tiled
		for _, c := range plan.Choices {
			if c.Rounds > c.BaseRounds {
				fmt.Printf("tile pass: %s %d -> %d rounds (%d -> %d cycles)\n",
					c.Layer, c.BaseRounds, c.Rounds, c.BaseCycles, c.Cycles)
			}
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var o *obs.Observer
	if *tracePath != "" || *traceCSV != "" || *metricsPath != "" || *manifestPath != "" {
		o = obs.New()
	}
	res, clock, err := runOnce(ctx, cfg, m.Name, specs, *workers, o)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s inference on 4x4 mesh @ %.0f MHz\n", m.Name, clock/1e6)
	fmt.Printf("latency: %d cycles (%.3f ms)\n", res.Cycles, res.Seconds(clock)*1e3)
	lt := res.Latency
	if cfg.Overlap {
		fmt.Printf("  memory %.1f%%  communication %.1f%%  computation %.1f%%  decode-stall %.1f%%\n",
			pct(lt.Memory, lt.Total()), pct(lt.Communication, lt.Total()),
			pct(lt.Computation, lt.Total()), pct(lt.DecodeStall, lt.Total()))
	} else {
		fmt.Printf("  memory %.1f%%  communication %.1f%%  computation %.1f%%\n",
			pct(lt.Memory, lt.Total()), pct(lt.Communication, lt.Total()), pct(lt.Computation, lt.Total()))
	}
	e := res.Energy
	fmt.Printf("energy: %.3f uJ\n", e.Total()/1e6)
	fmt.Printf("  comm   dyn %8.3f uJ  leak %8.3f uJ\n", e.CommDyn/1e6, e.CommLeak/1e6)
	fmt.Printf("  comp   dyn %8.3f uJ  leak %8.3f uJ\n", e.CompDyn/1e6, e.CompLeak/1e6)
	fmt.Printf("  local  dyn %8.3f uJ  leak %8.3f uJ\n", e.LocalDyn/1e6, e.LocalLeak/1e6)
	fmt.Printf("  main   dyn %8.3f uJ  leak %8.3f uJ\n", e.MainDyn/1e6, e.MainLeak/1e6)
	fmt.Printf("traffic: DRAM %d+%d words, %d flits, %d flit-hops\n",
		res.Traffic.DRAMReadWords, res.Traffic.DRAMWriteWords,
		res.Traffic.NoCFlits, res.Traffic.FlitHops)
	if cfg.Mesh.Faults.Enabled() {
		fmt.Printf("faults:  %d corrupted flits, %d packets retransmitted (all recovered)\n",
			res.Traffic.CorruptFlits, res.Traffic.Retransmits)
	}
	if *perLayer {
		fmt.Printf("\n%-16s %-6s %-5s %12s %8s %10s\n", "layer", "kind", "flow", "cycles", "rounds", "energy(uJ)")
		for _, l := range res.Layers {
			fmt.Printf("%-16s %-6s %-5s %12d %4d/%-4d %10.3f\n",
				l.Name, l.Kind, l.Flow, l.Cycles, l.SimRounds, l.Rounds, l.Energy.Total()/1e6)
		}
	}

	if err := writeObsOutputs(o, *tracePath, *traceCSV, *metricsPath); err != nil {
		fatal(err)
	}
	if *manifestPath != "" {
		man := buildManifest("nocsim", m.Name, *seed, *faultSeed, *delta, cfg, codecPlan, res, o)
		if err := man.WriteFile(*manifestPath); err != nil {
			fatal(err)
		}
	}
}

// pct is the NaN-safe percentage: a zero denominator (empty or aborted
// run) reports 0 instead of poisoning the output.
func pct(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// writeObsOutputs writes the trace and metrics files selected by flags.
func writeObsOutputs(o *obs.Observer, tracePath, traceCSV, metricsPath string) error {
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
	if traceCSV != "" {
		if err := writeTo(traceCSV, func(f *os.File) error { return o.T().WriteCSV(f) }); err != nil {
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
	return nil
}

// buildManifest assembles the reproducibility record for one run: the
// inputs and environment choices that determine the numbers, plus the
// deterministic results themselves. Worker counts and wall-clock time
// are deliberately absent, so manifests from the same configuration are
// byte-identical at any parallelism.
func buildManifest(tool, modelName string, seed, faultSeed int64, delta float64, cfg accel.Config, codecPlan []obs.CodecAssignment, res *accel.Result, o *obs.Observer) *obs.Manifest {
	man := &obs.Manifest{
		Tool:             tool,
		Model:            modelName,
		Seed:             seed,
		FaultSeed:        faultSeed,
		MatMulKernel:     tensor.MatMulKernel(),
		AvailableKernels: tensor.MatMulKernels(),
		Mesh:             [2]int{cfg.Mesh.Width, cfg.Mesh.Height},
		MemNodes:         cfg.MemNodes,
		MACLanes:         cfg.MACLanes,
		CodecPlan:        codecPlan,
		TraceEvents:      o.T().EventCount(),
	}
	if delta >= 0 {
		man.Delta = delta
	}
	if res != nil {
		man.Results = &obs.RunResults{
			TotalCycles:   res.Cycles,
			EnergyPJ:      res.Energy.Total(),
			MemoryCycles:  res.Latency.Memory,
			CommCycles:    res.Latency.Communication,
			ComputeCycles: res.Latency.Computation,
			FlitsInjected: res.Traffic.NoCFlits,
			DRAMReads:     res.Traffic.DRAMReadWords,
			DRAMWrites:    res.Traffic.DRAMWriteWords,
		}
		for _, l := range res.Layers {
			man.TierTimings = append(man.TierTimings, obs.TierTiming{
				Layer:         l.Name,
				TotalCycles:   l.Cycles,
				MemoryCycles:  l.Latency.Memory,
				CommCycles:    l.Latency.Communication,
				ComputeCycles: l.Latency.Computation,
				EnergyPJ:      l.Energy.Total(),
			})
		}
	}
	return man
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}

// runOnce simulates the model and returns the result and the clock rate.
func runOnce(ctx context.Context, cfg accel.Config, name string, specs []accel.LayerSpec, workers int, o *obs.Observer) (*accel.Result, float64, error) {
	sim, err := accel.NewSimulator(cfg)
	if err != nil {
		return nil, 0, err
	}
	sim.SetWorkers(workers)
	sim.SetObserver(o)
	res, err := sim.SimulateModelContext(ctx, name, specs)
	if err != nil {
		return nil, 0, err
	}
	return res, sim.Config().Energy.ClockHz, nil
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
			fmt.Fprintln(os.Stderr, "nocsim: heap profile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // flush recently freed objects so live-heap numbers are clean
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nocsim: heap profile:", err)
		}
	}, nil
}
