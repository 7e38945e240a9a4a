package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/planner"
	"repro/internal/train"
)

// Sizes of the lenet-plan workload: the experiment engine's fast-mode
// training (experiments.FastOptions) and the mixed experiment's
// full-mode planner bound.
const (
	planSamples  = 400
	planEpochs   = 3
	planTestFrac = 0.25
	planBudget   = 0.05
	planMaxEvals = 150
)

// A workload builds its inputs from the seed in setup and then runs
// measured passes over them.
type workload struct {
	name  string
	setup func(b *bench) (*instance, error)
}

// instance is one set-up workload.
type instance struct {
	// pass runs the measured compress → plan → simulate path once and
	// returns its modeled outputs, which every pass must reproduce.
	pass func() (*modeled, error)
	// score measures the accuracy of the compressed models after the
	// timed passes (stream workloads); nil when the pass reports it.
	score func() (float64, error)
}

var workloads = []workload{
	{name: "lenet-plan", setup: setupLenetPlan},
	{name: "lenet-stream", setup: streamSetup(models.LeNet5, []float64{-1, 0, 5, 10, 15, 20})},
	{name: "vgg16-stream", setup: streamSetup(models.VGG16, []float64{-1, 4, 8})},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// row is one simulated point of a stream workload, in the columns of
// results/overlap.csv.
type row struct {
	Model       string
	Delta       float64
	CR          float64
	Mode        string
	Rounds      int
	Cycles      uint64
	DecodeStall uint64
	EnergyUJ    float64
}

// modeled is what one pass computes on the modeled axis. It depends only
// on the seed, so every pass, worker count and traced run reproduces it.
type modeled struct {
	SimCycles uint64
	EnergyUJ  float64
	CR        float64
	Accuracy  float64 // the plan's top-1; a stream workload's score fills it after the passes
	Rows      []row

	// Per-layer counts.
	ScheduleCycles  map[string]uint64 // keyed by accel span: serial, overlap, tile
	Latency         accel.LatencyBreakdown
	Energy          accel.EnergyBreakdown
	Traffic         accel.Traffic
	Rounds          int
	SimRounds       int
	Residual        uint64 // Σ|Cycles − Latency.Total()| over simulated layers
	Segments        int
	Weights         int // weights compressed by core.CompressPct
	Evals           int
	TileRoundsAdded int
	AccuracySamples int // held-out samples scored by train.AccuracyWorkers
}

// addResult folds one SimulateModel result into the pass totals.
func (m *modeled) addResult(schedule string, r *accel.Result) {
	if m.ScheduleCycles == nil {
		m.ScheduleCycles = map[string]uint64{}
	}
	m.ScheduleCycles[schedule] += r.Cycles
	m.SimCycles += r.Cycles
	m.EnergyUJ += r.Energy.Total() / 1e6
	m.Latency.Memory += r.Latency.Memory
	m.Latency.Communication += r.Latency.Communication
	m.Latency.Computation += r.Latency.Computation
	m.Latency.DecodeStall += r.Latency.DecodeStall
	e := &m.Energy
	e.CommDyn += r.Energy.CommDyn
	e.CommLeak += r.Energy.CommLeak
	e.CompDyn += r.Energy.CompDyn
	e.CompLeak += r.Energy.CompLeak
	e.LocalDyn += r.Energy.LocalDyn
	e.LocalLeak += r.Energy.LocalLeak
	e.MainDyn += r.Energy.MainDyn
	e.MainLeak += r.Energy.MainLeak
	t := &m.Traffic
	t.DRAMReadWords += r.Traffic.DRAMReadWords
	t.DRAMWriteWords += r.Traffic.DRAMWriteWords
	t.NoCFlits += r.Traffic.NoCFlits
	t.FlitHops += r.Traffic.FlitHops
	t.LinkHops += r.Traffic.LinkHops
	for _, l := range r.Layers {
		m.Rounds += l.Rounds
		m.SimRounds += l.SimRounds
		if tot := l.Latency.Total(); tot > l.Cycles {
			m.Residual += tot - l.Cycles
		} else {
			m.Residual += l.Cycles - tot
		}
	}
}

func newSimulator(b *bench, overlap bool) (*accel.Simulator, error) {
	cfg := accel.DefaultConfig()
	cfg.Overlap = overlap
	s, err := accel.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	s.SetWorkers(b.workers)
	return s, nil
}

// trainedLenet is the LeNet-5 of the lenet-plan workload and the
// held-out digits its plan is scored on.
type trainedLenet struct {
	m       *models.Model
	testSet []dataset.Sample
	trained map[string][]float64 // weights of every plannable layer after training
}

// setupLenetPlan builds LeNet-5 and trains it like the experiment
// engine's fast mode. The model and its digits are those of the committed
// seed: the greedy plan is chaotic in its inputs, and a fresh draw of the
// 100 held-out digits moves the plan's compression ratio by 20%. The
// workload seed permutes the order in which the held-out digits are
// scored, which must change no output. Each pass plans, tiles and
// simulates the model.
func setupLenetPlan(b *bench) (*instance, error) {
	m, err := call(b, "models.build", func() (*models.Model, error) { return models.LeNet5(goldenSeed) })
	if err != nil {
		return nil, err
	}
	samples, err := call(b, "dataset.digits", func() ([]dataset.Sample, error) { return dataset.Digits(planSamples, goldenSeed) })
	if err != nil {
		return nil, err
	}
	trainSet, heldOut, err := dataset.Split(samples, planTestFrac)
	if err != nil {
		return nil, err
	}
	testSet := append([]dataset.Sample(nil), heldOut...)
	rand.New(rand.NewSource(b.seed)).Shuffle(len(testSet), func(i, j int) { testSet[i], testSet[j] = testSet[j], testSet[i] })
	opt, err := train.NewSGD(0.05, 0.9)
	if err != nil {
		return nil, err
	}
	tr, err := train.NewTrainer(m.Graph, opt, 16)
	if err != nil {
		return nil, err
	}
	tr.LRDecay = 0.85
	if _, err := call(b, "train.fit", func() ([]float64, error) { return tr.Fit(trainSet, planEpochs) }); err != nil {
		return nil, err
	}
	var accs [2]float64
	for i, set := range [][]dataset.Sample{heldOut, testSet} {
		if accs[i], err = call(b, "train.accuracy", func() (float64, error) { return train.AccuracyWorkers(m.Graph, set, b.workers) }); err != nil {
			return nil, err
		}
	}
	b.check(accs[0] == accs[1], "held-out accuracy %v changes to %v when the digits are permuted", accs[0], accs[1])
	n := &trainedLenet{m: m, testSet: testSet, trained: map[string][]float64{}}
	for _, l := range m.Graph.Layers() {
		if k := l.Kind(); (k == "CONV" || k == "DWCONV" || k == "FC") && len(l.Params()) > 0 {
			if n.trained[l.Name()], err = m.LayerWeights(l.Name()); err != nil {
				return nil, err
			}
		}
	}
	sim, err := newSimulator(b, true)
	if err != nil {
		return nil, err
	}
	pass := func() (*modeled, error) {
		out := &modeled{}
		return out, planLenet(b, sim, n, out)
	}
	return &instance{pass: pass}, nil
}

// planLenet restores a trained LeNet-5, plans a mixed-codec compression
// over the whole codec arena, tiles the planned model and simulates it in
// streaming-overlap mode, recording its outputs in out.
func planLenet(b *bench, sim *accel.Simulator, n *trainedLenet, out *modeled) error {
	m := n.m
	for name, w := range n.trained {
		if err := m.SetLayerWeights(name, w); err != nil {
			return err
		}
	}
	accuracy := func() (float64, error) {
		out.AccuracySamples += len(n.testSet)
		return callAlloc(b, "train.accuracy", func() (float64, error) {
			return train.AccuracyWorkers(m.Graph, n.testSet, b.workers)
		})
	}
	popts := planner.DefaultOptions()
	popts.Codecs = codecs.All()
	if b.tr != nil {
		for i, c := range popts.Codecs {
			popts.Codecs[i] = timedCodec{Codec: c, b: b}
		}
	}
	popts.MaxAccuracyDrop = planBudget
	popts.MaxEvals = b.maxEvals
	plan, err := call(b, "planner.greedy", func() (*planner.Plan, error) { return planner.Greedy(m, accuracy, popts) })
	if err != nil {
		return err
	}
	b.check(plan.Accuracy >= plan.BaseAccuracy-planBudget,
		"plan accuracy %v is below the budget floor %v", plan.Accuracy, plan.BaseAccuracy-planBudget)
	acc, err := accuracy()
	if err != nil {
		return err
	}
	b.check(acc == plan.Accuracy, "model left in plan state scores %v, plan reports %v", acc, plan.Accuracy)
	compressed := make(map[string]accel.CodecSpec, len(plan.Assignments))
	for _, a := range plan.Assignments {
		compressed[a.Layer] = accel.CodecSpec{Bits: a.Bits, Count: a.Params, Codec: a.Codec}
	}
	specs, err := call(b, "accel.specs", func() ([]accel.LayerSpec, error) { return accel.SpecsFromModelCodec(m, compressed) })
	if err != nil {
		return err
	}
	tiled, tp, err := planTiles(b, sim.Config(), specs, out)
	if err != nil {
		return err
	}
	res, err := callAlloc(b, "accel.tile", func() (*accel.Result, error) { return sim.SimulateModel(m.Name, tiled) })
	if err != nil {
		return err
	}
	b.check(res.Cycles == tp.Cycles, "tiled model simulates to %d cycles, tile plan predicts %d", res.Cycles, tp.Cycles)
	out.addResult("tile", res)
	out.CR = plan.WeightedCR
	out.Accuracy = plan.Accuracy
	out.Evals = plan.Evals
	return nil
}

// planTiles runs the planner's tile-shape pass and counts the rounds it
// adds.
func planTiles(b *bench, cfg accel.Config, specs []accel.LayerSpec, out *modeled) ([]accel.LayerSpec, *planner.TilePlan, error) {
	var tp *planner.TilePlan
	tiled, err := call(b, "planner.tiles", func() ([]accel.LayerSpec, error) {
		s, p, err := planner.PlanTiles(cfg, specs)
		tp = p
		return s, err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, c := range tp.Choices {
		out.TileRoundsAdded += c.Rounds - c.BaseRounds
	}
	return tiled, tp, nil
}

// streamSetup returns the set-up of a stream workload: the grid of
// results/overlap.csv for one model. Each point compresses the selected
// layer at one tolerance (-1 leaves it uncompressed) and simulates the
// serial, overlap and overlap+tile schedules.
func streamSetup(build func(int64) (*models.Model, error), deltas []float64) func(b *bench) (*instance, error) {
	return func(b *bench) (*instance, error) {
		m, err := call(b, "models.build", func() (*models.Model, error) { return build(b.seed) })
		if err != nil {
			return nil, err
		}
		serial, err := newSimulator(b, false)
		if err != nil {
			return nil, err
		}
		overlap, err := newSimulator(b, true)
		if err != nil {
			return nil, err
		}
		sm := core.DefaultStorage
		pass := func() (*modeled, error) {
			out := &modeled{}
			var logCR float64
			var compressedPoints int
			for _, delta := range deltas {
				cr := 1.0
				var comp map[string]*core.Compressed
				if delta >= 0 {
					w, err := call(b, "models.selected_weights", m.SelectedWeights)
					if err != nil {
						return nil, err
					}
					c, err := call(b, "core.compress", func() (*core.Compressed, error) { return core.CompressPct(w, delta) })
					if err != nil {
						return nil, err
					}
					out.Segments += len(c.Segments)
					out.Weights += c.N
					cr = c.CompressionRatio(sm)
					logCR += math.Log(cr)
					compressedPoints++
					comp = map[string]*core.Compressed{m.SelectedLayer: c}
				}
				specs, err := call(b, "accel.specs", func() ([]accel.LayerSpec, error) { return accel.SpecsFromModel(m, comp, sm) })
				if err != nil {
					return nil, err
				}
				tiled, _, err := planTiles(b, serial.Config(), specs, out)
				if err != nil {
					return nil, err
				}
				results := map[string]*accel.Result{}
				for _, sch := range []struct {
					name  string
					sim   *accel.Simulator
					specs []accel.LayerSpec
				}{{"serial", serial, specs}, {"overlap", overlap, specs}, {"tile", overlap, tiled}} {
					r, err := callAlloc(b, "accel."+sch.name, func() (*accel.Result, error) { return sch.sim.SimulateModel(m.Name, sch.specs) })
					if err != nil {
						return nil, err
					}
					out.addResult(sch.name, r)
					results[sch.name] = r
					rounds := 0
					for _, l := range r.Layers {
						rounds += l.Rounds
					}
					mode := sch.name
					if mode == "tile" {
						mode = "overlap+tile"
					}
					out.Rows = append(out.Rows, row{
						Model: m.Name, Delta: delta, CR: cr, Mode: mode, Rounds: rounds,
						Cycles: r.Cycles, DecodeStall: r.Latency.DecodeStall, EnergyUJ: r.Energy.Total() / 1e6,
					})
				}
				rs, ro, rt := results["serial"].Cycles, results["overlap"].Cycles, results["tile"].Cycles
				b.check(ro <= rs, "%s delta %g: overlap %d cycles > serial %d", m.Name, delta, ro, rs)
				b.check(rt <= ro, "%s delta %g: overlap+tile %d cycles > overlap %d", m.Name, delta, rt, ro)
			}
			out.CR = math.Exp(logCR / float64(compressedPoints))
			return out, nil
		}
		score := func() (float64, error) { return weightFidelity(m, deltas[len(deltas)-1]) }
		return &instance{pass: pass, score: score}, nil
	}
}

// weightFidelity is the accuracy of a stream workload: the stream models
// are untrained and have no labelled data, so it is the reconstruction
// accuracy of the selected layer at the grid's strongest tolerance,
// 1 − ‖w − ŵ‖₂ / ‖w‖₂ for the original weights w and their decompressed
// approximation ŵ. Over many weights drawn from one distribution it
// barely moves with the seed, where a top-5 fidelity over a few probes
// of an untrained network swings between 0.15 and 0.6.
func weightFidelity(m *models.Model, delta float64) (float64, error) {
	w, err := m.SelectedWeights()
	if err != nil {
		return 0, err
	}
	c, err := core.CompressPct(w, delta)
	if err != nil {
		return 0, err
	}
	approx, err := c.Decompress()
	if err != nil {
		return 0, err
	}
	var diff, norm float64
	for i, v := range w {
		d := v - approx[i]
		diff += d * d
		norm += v * v
	}
	return 1 - math.Sqrt(diff/norm), nil
}

// timedCodec hands the planner a codec whose every method delegates to
// the registered one, with a span around each compress and decompress.
type timedCodec struct {
	core.Codec
	b *bench
}

func (c timedCodec) Compress(w []float64, level float64) ([]byte, error) {
	return call(c.b, "codec."+c.Name()+".compress", func() ([]byte, error) { return c.Codec.Compress(w, level) })
}

func (c timedCodec) Decompress(stream []byte) ([]float64, error) {
	return call(c.b, "codec."+c.Name()+".decompress", func() ([]float64, error) { return c.Codec.Decompress(stream) })
}
