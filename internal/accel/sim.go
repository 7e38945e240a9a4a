package accel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ErrDataLoss reports that injected faults permanently dropped NoC
// packets (retry budget exhausted or destination unroutable), so the
// layer's dataflow can never complete. Callers detect it with
// errors.Is and treat the configuration as failed rather than hung.
var ErrDataLoss = errors.New("accel: packets permanently lost to faults")

// Simulator executes layer specs on the accelerator platform.
//
// A Simulator is immutable after construction apart from SetWorkers and is
// safe for concurrent use: SimulateLayer checks a fresh, fully reset
// layerScratch out of an internal sync.Pool on every call (reusing the
// noc.Network and per-PE/per-MI runtime state across layers instead of
// reallocating them), and otherwise only reads the shared
// cfg/pes/assign/peIdx/miPEs fields. Config and LayerSpec are plain
// value types with no interior mutability, so specs may be shared
// freely across goroutines. Every scratch is reset to an identical
// state before use, so results do not depend on pool scheduling.
type Simulator struct {
	cfg     Config
	pes     []int
	assign  map[int]int // PE node -> memory interface node
	peIdx   map[int]int // PE node -> dense index into layerScratch.pes
	peMI    []int       // per PE index: dense index of its MI into layerScratch.mis
	miPEs   [][]int     // per MemNodes index: assigned PE nodes, ascending
	workers int
	obsv    *obs.Observer // nil = all instrumentation disabled (zero cost)
	pool    sync.Pool     // *layerScratch
}

// NewSimulator validates the configuration and precomputes the PE to
// memory-interface assignment.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, pes: cfg.peNodes(), assign: cfg.assignPEs(), workers: 1}
	s.peIdx = make(map[int]int, len(s.pes))
	for i, p := range s.pes {
		s.peIdx[p] = i
	}
	s.miPEs = make([][]int, len(cfg.MemNodes))
	s.peMI = make([]int, len(s.pes))
	for mi, m := range cfg.MemNodes {
		for _, p := range s.pes {
			if s.assign[p] == m {
				s.miPEs[mi] = append(s.miPEs[mi], p)
				s.peMI[s.peIdx[p]] = mi
			}
		}
	}
	return s, nil
}

// Config returns the platform configuration.
func (s *Simulator) Config() Config { return s.cfg }

// SetWorkers sets the number of goroutines SimulateModel uses to simulate
// independent layers; n < 1 selects runtime.GOMAXPROCS(0). Call before
// handing the Simulator to concurrent users — it is the one mutating
// method.
func (s *Simulator) SetWorkers(n int) { s.workers = parallel.Workers(n) }

// SetObserver installs the observability sink: per-layer trace buffers
// (DRAM/compute phase spans plus the NoC packet lifecycle) and the
// metrics registry (cycle tiers, traffic counters, latency histogram).
// nil (the default) disables everything at zero cost. Like SetWorkers,
// call before handing the Simulator to concurrent users. Metric values
// and exported traces are deterministic at any worker count: counters
// are additive atomics and trace buffers are keyed by (model, layer
// index), never by completion order.
func (s *Simulator) SetObserver(o *obs.Observer) { s.obsv = o }

// SimulateModel runs every layer and aggregates the results. Layers are
// independent — each SimulateLayer call owns its pooled scratch — so they are
// simulated concurrently on the configured worker count; results are
// collected by layer index, making the aggregate identical to a serial
// run regardless of worker count.
func (s *Simulator) SimulateModel(modelName string, specs []LayerSpec) (*Result, error) {
	return s.SimulateModelContext(context.Background(), modelName, specs)
}

// SimulateModelContext is SimulateModel bounded by a context: layer
// simulations poll ctx and abandon the run promptly when it is canceled
// or its deadline passes.
func (s *Simulator) SimulateModelContext(ctx context.Context, modelName string, specs []LayerSpec) (*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("accel: no layer specs")
	}
	layers, err := parallel.Map(ctx, s.workers, len(specs),
		func(ctx context.Context, i int) (LayerResult, error) {
			lr, err := s.simulateLayer(ctx, specs[i], s.obsv.LayerBuffer(modelName, i, specs[i].Name))
			if err != nil {
				return LayerResult{}, fmt.Errorf("accel: layer %q: %w", specs[i].Name, err)
			}
			return lr, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Result{Model: modelName}
	for _, lr := range layers {
		res.accumulate(lr)
	}
	return res, nil
}

// Message tags. Every packet the accelerator sends carries its kind in
// bit 0, its round in bits 1-32 and its PE's dense index into
// layerScratch.pes above them, so the delivery sink decodes it without a
// map lookup or a boxed descriptor.
const (
	tagFetch  = 0 // weight/input tile, memory interface -> PE
	tagOutput = 1 // output writeback, PE -> memory interface
)

// msgTag packs one message's kind, PE index and round.
func msgTag(kind uint64, peIdx, round int) uint64 {
	return uint64(peIdx)<<33 | uint64(uint32(round))<<1 | kind
}

// dramJob is one main-memory transaction at a memory interface.
type dramJob struct {
	words   uint64
	isWrite bool
	pe      int
	peIdx   int
	round   int
	// readyAt is the cycle the controller first knew about this job
	// (writeback delivery, or a read's prefetch window opening). In
	// overlap mode the request overlaps the previous burst from readyAt
	// on, so only max(0, readyAt+DRAMLatency-start) of the fixed request
	// latency stays exposed. Serial mode ignores it.
	readyAt uint64
}

// miSlot is one assigned PE's fetch stream at a memory interface: read
// jobs are constructed on the fly from (words, nextRead) instead of
// being materialized per round.
type miSlot struct {
	pe       int    // PE node id
	peIdx    int    // dense index into layerScratch.pes
	words    uint64 // DRAM words per fetch round
	nextRead int    // next round to issue
}

// phase span names emitted per layer when tracing is enabled.
const (
	spanDRAMRead  = "dram_read"  // weight/input fetch at a memory interface
	spanDRAMWrite = "dram_write" // output writeback at a memory interface
	spanMAC       = "mac"        // per-round PE compute
	spanDecompMAC = "decompress+mac"
	// Overlap-mode spans: the decompression unit refilling a tile, and
	// the MAC lanes sitting idle on a tile that arrived but is not yet
	// decoded.
	spanDecode      = "decode"
	spanDecodeStall = "decode_stall"
)

// miState is the runtime state of one memory interface. The writeback
// queue reuses its backing array across the layer, and the in-service
// job is held by value to avoid a per-job heap allocation.
type miState struct {
	node     int
	slots    []miSlot
	writes   fifo.Queue[dramJob] // pending writeback jobs
	current  dramJob
	busy     bool // current holds an in-service job
	startAt  uint64
	finishAt uint64
}

// peState is the runtime state of one PE. The per-round bookkeeping is
// round-indexed slices (rounds are dense in [0, simRounds)), reused
// across layers by the scratch pool.
type peState struct {
	node, mi  int
	round     int
	computing bool
	busyUntil uint64
	done      bool
	arrived   []int32 // per round: packets arrived
	expected  []int32 // per round: packets expected (set at injection)
	issued    []bool  // per round: fetch issued

	// Streaming-overlap pipeline state (unused in serial mode). The
	// decompression unit is a second stage between arrival and the MAC
	// lanes: it refills tile decRound while the MACs consume tile round,
	// double-buffered (decRound <= round+1).
	decRound    int      // next round the decompression unit will refill
	decoding    bool     // decompression unit busy
	decodeFrom  uint64   // cycle the in-flight decode started (span emission)
	decodeUntil uint64   // cycle the in-flight decode completes
	decoded     []bool   // per round: tile consumable by the MAC lanes
	arriveAt    []uint64 // per round: cycle the tile's last packet arrived
	roundSince  uint64   // cycle round attained its value (read-readiness for MI request pipelining)
	macFreeAt   uint64   // cycle the MAC lanes last went idle (stall span start)
}

// layerScratch is the reusable per-layer runtime state: the mesh
// network plus PE and MI bookkeeping, and the counters of the layer in
// flight. Simulator pools these so a layer reuses a reset scratch
// instead of reallocating it. The pool is emptied by garbage
// collection, so scratches are rebuilt regularly; that stays cheap
// because the network's injection queues grow with packets, not flits.
type layerScratch struct {
	sim *Simulator // owner: the platform config and the PE-to-MI map
	nw  *noc.Network
	pes []peState
	mis []miState
	// sink is sc.deliver, bound once per scratch so installing it per
	// layer allocates nothing.
	sink func(noc.Delivery)

	// Per-layer parameters, set by startLayer.
	name       string
	g          layerGeometry
	buf        *obs.Buffer
	compSpan   string
	fetchFlits int
	outFlits   int

	// Per-layer counters.
	outstandingWrites int
	dramReadWords     uint64
	dramWriteWords    uint64
	lat               LatencyBreakdown

	// Event-horizon marks (see run): advanced is set when a pass moves
	// a PE to its next round, delivered by the sink on every delivery.
	advanced  bool
	delivered bool
}

// getScratch checks a scratch out of the pool, constructing one on
// first use. The network is reset; per-layer fields are reset by
// startLayer once the layer's round count is known.
func (s *Simulator) getScratch() (*layerScratch, error) {
	if sc, _ := s.pool.Get().(*layerScratch); sc != nil {
		sc.nw.Reset()
		return sc, nil
	}
	nw, err := noc.New(s.cfg.Mesh)
	if err != nil {
		return nil, err
	}
	sc := &layerScratch{
		sim: s,
		nw:  nw,
		pes: make([]peState, len(s.pes)),
		mis: make([]miState, len(s.cfg.MemNodes)),
	}
	sc.sink = sc.deliver
	for i, p := range s.pes {
		sc.pes[i] = peState{node: p, mi: s.assign[p]}
	}
	for mi, m := range s.cfg.MemNodes {
		slots := make([]miSlot, len(s.miPEs[mi]))
		for k, p := range s.miPEs[mi] {
			slots[k] = miSlot{pe: p, peIdx: s.peIdx[p]}
		}
		sc.mis[mi] = miState{node: m, slots: slots}
	}
	return sc, nil
}

// growInt32 returns s resized to n elements, all zero, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growBool returns s resized to n elements, all false, reusing capacity.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growUint64 returns s resized to n elements, all zero, reusing capacity.
func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// layerGeometry is the per-layer derived tiling.
type layerGeometry struct {
	flow         Dataflow
	rounds       int
	simRounds    int
	wBytesPE     uint64 // per PE, whole layer
	iBytesPE     uint64
	oBytesPE     uint64
	computeRound uint64 // compute cycles per round per PE
	opsTotal     uint64
	// Overlap mode only: the decompression unit as its own pipeline
	// stage. In serial mode decodeRound stays 0 and decompression
	// throughput folds into computeRound as before.
	decodeRound     uint64 // decompression-unit cycles per tile per PE
	streamBitsRound uint64 // compressed stream bits per tile per PE
	weightsRound    uint64 // weights regenerated per tile per PE
}

const (
	flitBytes     = 8
	wordBytes     = 8
	maxLayerCycle = 500_000_000
	// localMemUtil is the fraction of the scratchpad usable for tiles
	// (the rest holds control state and double-buffer slack).
	localMemUtil = 0.9
	// haloFactor inflates striped input fetches for the overlapping rows
	// spatially partitioned convolutions need.
	haloFactor = 1.1
)

func ceilDiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}

// dramServiceCycles returns the transfer time of a burst at the sustained
// DRAM bandwidth (words per cycle, possibly fractional): the exact ceiling
// of words/wordsPerCy, never below one cycle.
//
// Integer and reciprocal-integer bandwidths — every configuration the
// platform uses — are computed in exact integer arithmetic; other
// fractional rates fall back to math.Ceil. The former float-epsilon
// ceiling (quotient + 0.999999 truncated) was wrong at both ends: above
// ~1e15 the added epsilon rounds an exact multiple up a full cycle, and a
// quotient with a fractional part under 1e-6 loses its partial cycle
// entirely — for large bursts the epsilon vanishes into the float64
// granularity.
func dramServiceCycles(words uint64, wordsPerCy float64) uint64 {
	if wordsPerCy <= 0 {
		return words
	}
	var c uint64
	inv := 1 / wordsPerCy
	switch {
	case wordsPerCy >= 1 && wordsPerCy <= 1e15 && wordsPerCy == math.Trunc(wordsPerCy):
		c = ceilDiv(words, uint64(wordsPerCy))
	case wordsPerCy < 1 && inv <= 1e9 && inv == math.Trunc(inv) && words < (1<<54):
		c = words * uint64(inv)
	default:
		c = uint64(math.Ceil(float64(words) / wordsPerCy))
	}
	if c < 1 {
		c = 1
	}
	return c
}

// exposedLatency returns the visible DRAM request latency of a job that
// starts service at now. Serial mode always pays the full latency with
// the interface blocked. Overlap mode pipelines requests: the
// controller issues a request the moment the job is known (readyAt),
// concurrently with whatever burst is in flight, so only the part of
// the latency extending past now stays exposed — back-to-back bursts
// hide it entirely, and a burst into an idle interface still pays in
// full (an idle interface starts a ready job the cycle it appears, so
// now-readyAt never silently grows while idle).
func exposedLatency(overlap bool, dramLatency, readyAt, now uint64) uint64 {
	if !overlap {
		return dramLatency
	}
	if readyAt+dramLatency <= now {
		return 0
	}
	return readyAt + dramLatency - now
}

// geometry derives the tiling and per-round quantities for a layer.
func (s *Simulator) geometry(spec LayerSpec) layerGeometry {
	numPEs := uint64(len(s.pes))
	g := layerGeometry{flow: spec.Flow(len(s.pes))}

	switch g.flow {
	case ConvFlow:
		// Spatial partitioning: weights broadcast, input striped.
		g.wBytesPE = spec.WeightBytes
		g.iBytesPE = uint64(float64(spec.InputBytes)*haloFactor) / numPEs
		g.oBytesPE = spec.OutputBytes / numPEs
	default:
		// Output-neuron partitioning: weights striped, input broadcast.
		g.wBytesPE = spec.WeightBytes / numPEs
		g.iBytesPE = spec.InputBytes
		g.oBytesPE = spec.OutputBytes / numPEs
	}
	if g.wBytesPE == 0 && spec.WeightBytes > 0 {
		g.wBytesPE = 1
	}
	if g.iBytesPE == 0 && spec.InputBytes > 0 {
		g.iBytesPE = 1
	}
	if g.oBytesPE == 0 && spec.OutputBytes > 0 {
		g.oBytesPE = 1
	}

	perPE := g.wBytesPE + g.iBytesPE + g.oBytesPE
	eff := uint64(float64(s.cfg.LocalMemBytes) * localMemUtil)
	g.rounds = int(ceilDiv(perPE, eff))
	if g.rounds < 1 {
		g.rounds = 1
	}
	// A finer tiling than capacity requires is always valid (smaller
	// tiles fit a fortiori); the overlap planner uses this to shrink
	// pipeline fill. Coarser-than-capacity overrides are ignored.
	if spec.RoundsOverride > g.rounds {
		g.rounds = spec.RoundsOverride
	}
	g.simRounds = g.rounds
	if g.simRounds > s.cfg.MaxSimRounds {
		g.simRounds = s.cfg.MaxSimRounds
	}

	// Computation: MACs, with a floor of one op per output value so
	// parameter-free layers (pooling, BN scale/shift) still take time.
	outVals := spec.OutputBytes / bytesPerValue
	g.opsTotal = spec.MACs
	if g.opsTotal < outVals {
		g.opsTotal = outVals
	}
	opsPE := g.opsTotal / numPEs
	opsRound := ceilDiv(opsPE, uint64(g.rounds))
	g.computeRound = ceilDiv(opsRound, uint64(s.cfg.MACsPerCycle()))
	if spec.Compressed {
		wcPE := spec.WeightCount / numPEs
		if g.flow == ConvFlow {
			wcPE = spec.WeightCount
		}
		wcRound := ceilDiv(wcPE, uint64(g.rounds))
		if s.cfg.Overlap {
			// Streaming mode: decompression is its own double-buffered
			// pipeline stage, costed by the codec's decode-rate model,
			// not folded into the MAC time.
			g.weightsRound = wcRound
			g.streamBitsRound = ceilDiv(g.wBytesPE, uint64(g.rounds)) * 8
			dm := core.LookupDecodeModel(spec.Codec)
			g.decodeRound = dm.TileCycles(g.streamBitsRound, wcRound, s.cfg.DecompUnits)
		} else if d := ceilDiv(wcRound, uint64(s.cfg.DecompUnits)); d > g.computeRound {
			g.computeRound = d
		}
	}
	if g.computeRound < 1 {
		g.computeRound = 1
	}

	return g
}

// SimulateLayer runs one layer cycle-accurately for up to MaxSimRounds
// tiling rounds and extrapolates the steady state to the full round count.
func (s *Simulator) SimulateLayer(spec LayerSpec) (LayerResult, error) {
	return s.SimulateLayerContext(context.Background(), spec)
}

// SimulateLayerContext is SimulateLayer bounded by a context, polled
// every few thousand simulated cycles so a deadline or cancellation
// interrupts even a degenerate configuration mid-layer.
func (s *Simulator) SimulateLayerContext(ctx context.Context, spec LayerSpec) (LayerResult, error) {
	return s.simulateLayer(ctx, spec, s.obsv.LayerBuffer(spec.Name, 0, spec.Name))
}

// simulateLayer simulates one layer, with buf (possibly nil) receiving
// the layer's phase spans and NoC packet lifecycle. The disabled path
// costs one pointer comparison per emission site and zero allocations.
func (s *Simulator) simulateLayer(ctx context.Context, spec LayerSpec, buf *obs.Buffer) (LayerResult, error) {
	sc, err := s.startLayer(spec, buf)
	if err != nil {
		return LayerResult{}, err
	}
	defer s.pool.Put(sc)
	if err := sc.run(ctx); err != nil {
		return LayerResult{}, err
	}
	return s.finishLayer(spec, sc), nil
}

// startLayer checks a scratch out of the pool and prepares it for spec:
// geometry, message sizes, reset PE and MI state, and the network's
// sink and observers.
func (s *Simulator) startLayer(spec LayerSpec, buf *obs.Buffer) (*layerScratch, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := s.geometry(spec)
	sc, err := s.getScratch()
	if err != nil {
		return nil, err
	}
	nw := sc.nw
	if buf != nil {
		nw.SetTrace(buf)
	}
	if m := s.obsv.M(); m != nil {
		nw.SetLatencyHistogram(m.Histogram("noc_packet_latency_cycles", obs.Pow2Buckets(24)))
	}
	sc.name, sc.g, sc.buf = spec.Name, g, buf
	sc.compSpan = spanMAC
	if spec.Compressed && !s.cfg.Overlap {
		sc.compSpan = spanDecompMAC // in overlap mode decode gets its own span
	}

	// Per-round per-PE message sizes (bytes).
	wRound := ceilDiv(g.wBytesPE, uint64(g.rounds))
	iRound := ceilDiv(g.iBytesPE, uint64(g.rounds))
	oRound := ceilDiv(g.oBytesPE, uint64(g.rounds))
	sc.fetchFlits = int(ceilDiv(wRound+iRound, flitBytes))
	sc.outFlits = int(ceilDiv(oRound, flitBytes))
	// DRAM read cost per fetch: broadcast data (weights under ConvFlow,
	// the input under FCFlow) is read once per memory interface and
	// replicated over the NoC; per-PE data is read per PE. When
	// WeightBytesDRAM differs from WeightBytes (memory-side decompression
	// ablation), the DRAM-side weight component scales accordingly —
	// exact ceiling arithmetic, like dramServiceCycles, so a partial
	// trailing word is never truncated away.
	wDRAM := wRound
	if spec.WeightBytesDRAM != 0 && spec.WeightBytes != 0 {
		wDRAM = ceilDiv(wRound*spec.WeightBytesDRAM, spec.WeightBytes)
	}
	var fetchWordsFirst, fetchWordsRest uint64
	if g.flow == ConvFlow {
		// Shared part = weights, own part = input stripe.
		fetchWordsFirst = ceilDiv(wDRAM+iRound, wordBytes)
		fetchWordsRest = ceilDiv(iRound, wordBytes)
	} else {
		// Shared part = input, own part = weight slice.
		fetchWordsFirst = ceilDiv(iRound+wDRAM, wordBytes)
		fetchWordsRest = ceilDiv(wDRAM, wordBytes)
	}

	// Reset the pooled runtime state for this layer's round count.
	for i := range sc.pes {
		pe := &sc.pes[i]
		pe.round, pe.computing, pe.done, pe.busyUntil = 0, false, false, 0
		pe.arrived = growInt32(pe.arrived, g.simRounds)
		pe.expected = growInt32(pe.expected, g.simRounds)
		pe.issued = growBool(pe.issued, g.simRounds)
		pe.decRound, pe.decoding, pe.decodeFrom, pe.decodeUntil = 0, false, 0, 0
		pe.roundSince, pe.macFreeAt = 0, 0
		pe.decoded = growBool(pe.decoded, g.simRounds)
		pe.arriveAt = growUint64(pe.arriveAt, g.simRounds)
	}
	for i := range sc.mis {
		mi := &sc.mis[i]
		mi.busy, mi.finishAt = false, 0
		mi.writes.Reset()
		for k := range mi.slots {
			sl := &mi.slots[k]
			sl.nextRead = 0
			sl.words = fetchWordsFirst
			if k > 0 {
				sl.words = fetchWordsRest
			}
			if sl.words == 0 {
				sl.words = 1 // job bookkeeping still costs a beat
			}
		}
	}
	sc.outstandingWrites = 0
	sc.dramReadWords, sc.dramWriteWords = 0, 0
	sc.lat = LatencyBreakdown{}
	sc.advanced, sc.delivered = false, false
	nw.SetSink(sc.sink)
	return sc, nil
}

// deliver is the network's delivery sink.
func (sc *layerScratch) deliver(d noc.Delivery) {
	sc.delivered = true
	tag := d.Packet.Tag
	peIdx, round := int(tag>>33), int(uint32(tag>>1))
	pe := &sc.pes[peIdx]
	if tag&1 == tagFetch {
		pe.arrived[round]++
		pe.arriveAt[round] = d.Cycle // last write = tile arrival complete
		return
	}
	// One write job per delivered packet, sized by the packet.
	mi := &sc.mis[sc.sim.peMI[peIdx]]
	mi.writes.Push(dramJob{words: uint64(d.Packet.Flits), isWrite: true, pe: pe.node, peIdx: peIdx, round: round, readyAt: d.Cycle})
	if sc.buf != nil {
		sc.buf.Instant("eject", "noc", d.Packet.Dst, d.Cycle,
			obs.KV{K: "pe", V: uint64(pe.node)}, obs.KV{K: "round", V: uint64(round)})
	}
}

// done reports whether the layer has finished: every PE through its
// rounds, every writeback landed in DRAM, and the mesh drained.
func (sc *layerScratch) done() bool {
	for i := range sc.pes {
		if !sc.pes[i].done {
			return false
		}
	}
	if sc.outstandingWrites > 0 {
		return false
	}
	for i := range sc.mis {
		if sc.mis[i].busy || sc.mis[i].writes.Len() > 0 {
			return false
		}
	}
	return sc.nw.Idle()
}

// busyFlags are what a pass found busy at the current cycle; they pick
// the latency component the cycle is attributed to.
type busyFlags struct {
	mem, comp, stall bool
}

// attribute charges delta cycles to one latency component. Serial mode
// keeps the paper's priority (memory over communication over
// computation). Overlap mode inverts it: a cycle where any MAC lane
// progresses is compute, a compute-idle cycle waiting only on the
// decompression unit is a decode stall, and what remains is the
// *exposed* memory/communication time the double buffering failed to
// hide (see LatencyBreakdown).
func (l *LatencyBreakdown) attribute(delta uint64, overlap bool, b busyFlags, commBusy bool) {
	switch {
	case overlap && b.comp:
		l.Computation += delta
	case overlap && b.stall:
		l.DecodeStall += delta
	case b.mem:
		l.Memory += delta
	case commBusy:
		l.Communication += delta
	case b.comp:
		l.Computation += delta
	default:
		l.Communication += delta // handshake bubbles
	}
}

// run is the cycle loop. Each cycle it either runs a full PE/MI pass or,
// inside an event-horizon window, steps only the NoC.
//
// A pass leaves the PEs and MIs at a fixed point of the pass itself,
// with one exception. Every other mutation either arms a timer (a DRAM
// job, a MAC round or a decode starting) or is consumed later in the
// same pass (the PE loop sees an MI's finished read, the MAC start a
// finished decode). The exception is a PE advancing its round: that
// opens its MI's next read window, and the MI loop runs before the PE
// loop, so only the next pass can act on it. So after a pass in which
// no PE advanced (sc.advanced stays false), a pass can change something
// again only once the clock reaches the horizon (the earliest PE/MI
// timer), the sink delivers a packet, or the mesh drains (which can end
// the layer or allow an idle jump). Until then the loop skips the
// passes and done() and steps only the NoC. The busy flags are frozen
// over the window, so each skipped cycle is attributed exactly as a
// pass would have attributed it. The drop check, the ctx poll and the
// maxLayerCycle guard still run every cycle.
func (sc *layerScratch) run(ctx context.Context) error {
	nw := sc.nw
	overlap := sc.sim.cfg.Overlap
	var b busyFlags
	quiet := false // no PE advanced in the last pass; only the NoC stepped since
	horizon := uint64(math.MaxUint64)
	for iter := 0; ; iter++ {
		now := nw.Cycle()
		full := !quiet || sc.delivered || now >= horizon || nw.Idle()
		if full && sc.done() {
			return nil
		}
		if now > maxLayerCycle {
			return fmt.Errorf("accel: layer %q exceeded %d cycles", sc.name, maxLayerCycle)
		}
		if iter&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Fail fast on permanent packet loss: the dataflow waits on data
		// that will never arrive, so the layer can only time out.
		if dropped := nw.DroppedPackets(); dropped > 0 {
			return fmt.Errorf("%w (%d packets)", ErrDataLoss, dropped)
		}
		if full {
			sc.advanced, sc.delivered = false, false
			var err error
			if b, err = sc.pass(now); err != nil {
				return err
			}
			quiet = !sc.advanced
			if quiet || nw.Idle() {
				horizon = sc.horizon(now)
			}
			// Idle-cycle jump: when the NoC holds no flits, nothing can
			// change until the horizon — MIs cannot start jobs
			// (startable jobs were started this pass and unblocking
			// needs a delivery or a round advance), PEs cannot start or
			// finish before their timers, and an idle network stays
			// idle because nothing is injected. Every skipped cycle
			// would take the same attribution branch, so jumping the
			// clock is exactly equivalent to stepping through the gap.
			// No pending event with work remaining means a deadlocked
			// configuration: fall through and let the per-cycle loop
			// hit the maxLayerCycle guard.
			if nw.Idle() && horizon != math.MaxUint64 && horizon > now+1 {
				next := horizon
				if next > maxLayerCycle+1 {
					next = maxLayerCycle + 1
				}
				sc.lat.attribute(next-now, overlap, b, false)
				nw.AdvanceIdle(next)
				continue
			}
		}
		sc.lat.attribute(1, overlap, b, !nw.Idle())
		nw.Step()
	}
}

// horizon returns the earliest PE/MI timer after now: an in-service
// DRAM job's completion, a MAC round's completion or a decode's cycle
// budget running out (math.MaxUint64 if none). A decode whose budget
// already elapsed waits on arrival (a delivery), not on its own timer.
// After a pass every remaining timer lies after now, since the pass
// retires the expired ones.
func (sc *layerScratch) horizon(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	for i := range sc.mis {
		if sc.mis[i].busy && sc.mis[i].finishAt < next {
			next = sc.mis[i].finishAt
		}
	}
	for i := range sc.pes {
		pe := &sc.pes[i]
		if pe.done {
			continue
		}
		if pe.computing && pe.busyUntil < next {
			next = pe.busyUntil
		}
		if pe.decoding && pe.decodeUntil > now && pe.decodeUntil < next {
			next = pe.decodeUntil
		}
	}
	return next
}

// pass runs the memory interfaces and then the PEs for cycle now,
// setting sc.advanced when a PE moves to its next round, and reports
// what is busy.
func (sc *layerScratch) pass(now uint64) (busyFlags, error) {
	var b busyFlags
	nw := sc.nw
	g := &sc.g
	overlap := sc.sim.cfg.Overlap
	dramLatency := uint64(sc.sim.cfg.Energy.DRAMLatency)
	wordsPerCy := sc.sim.cfg.Energy.DRAMWordsPerCy
	buf := sc.buf
	// Memory interfaces.
	for miI := range sc.mis {
		mi := &sc.mis[miI]
		if mi.busy {
			if now >= mi.finishAt {
				job := mi.current
				mi.busy = false
				if buf != nil {
					name := spanDRAMRead
					if job.isWrite {
						name = spanDRAMWrite
					}
					buf.Span(name, "memory", mi.node, mi.startAt, mi.finishAt-mi.startAt,
						obs.KV{K: "pe", V: uint64(job.pe)}, obs.KV{K: "round", V: uint64(job.round)}, obs.KV{K: "words", V: job.words})
				}
				if job.isWrite {
					sc.dramWriteWords += job.words
					sc.outstandingWrites--
				} else {
					sc.dramReadWords += job.words
					n, err := nw.SendMessage(mi.node, job.pe, sc.fetchFlits, msgTag(tagFetch, job.peIdx, job.round))
					if err != nil {
						return b, err
					}
					pe := &sc.pes[job.peIdx]
					pe.expected[job.round] = int32(n)
					pe.issued[job.round] = true
				}
			} else {
				b.mem = true
			}
		}
		if !mi.busy {
			// Prefer writebacks, then reads (double-buffered: at most
			// one round ahead of the PE's current round).
			if mi.writes.Len() > 0 {
				mi.current = mi.writes.Pop()
				mi.busy = true
				mi.startAt = now
				mi.finishAt = now + exposedLatency(overlap, dramLatency, mi.current.readyAt, now) +
					dramServiceCycles(mi.current.words, wordsPerCy)
				b.mem = true
			} else {
				for k := range mi.slots {
					sl := &mi.slots[k]
					r := sl.nextRead
					if r >= g.simRounds {
						continue
					}
					if r > sc.pes[sl.peIdx].round+1 {
						continue // respect double buffering
					}
					// A read becomes known when its prefetch window
					// opens: rounds 0 and 1 at layer start, round r
					// when the PE advanced to r-1. (If the PE is
					// already past r-1 the window opened at some
					// earlier advance; readyAt 0 keeps the request
					// fully pipelined, which is what a backlogged
					// interface sees anyway.)
					var ready uint64
					if overlap && r > 1 {
						if pe := &sc.pes[sl.peIdx]; pe.round == r-1 {
							ready = pe.roundSince
						}
					}
					sl.nextRead++
					mi.current = dramJob{words: sl.words, pe: sl.pe, peIdx: sl.peIdx, round: r, readyAt: ready}
					mi.busy = true
					mi.startAt = now
					mi.finishAt = now + exposedLatency(overlap, dramLatency, ready, now) +
						dramServiceCycles(sl.words, wordsPerCy)
					b.mem = true
					break
				}
			}
		}
	}

	// PEs.
	for i := range sc.pes {
		pe := &sc.pes[i]
		if pe.done {
			continue
		}
		if !overlap {
			// Serial ship-then-compute schedule (unchanged).
			if pe.computing {
				if now >= pe.busyUntil {
					pe.computing = false
					if buf != nil {
						buf.Span(sc.compSpan, "compute", pe.node, pe.busyUntil-g.computeRound, g.computeRound,
							obs.KV{K: "round", V: uint64(pe.round)})
					}
					if sc.outFlits > 0 {
						npkts, err := nw.SendMessage(pe.node, pe.mi, sc.outFlits, msgTag(tagOutput, i, pe.round))
						if err != nil {
							return b, err
						}
						sc.outstandingWrites += npkts
					}
					pe.round++
					sc.advanced = true
					if pe.round >= g.simRounds {
						pe.done = true
						continue
					}
				} else {
					b.comp = true
					continue
				}
			}
			// Start the round once its tile has fully arrived, or
			// directly on a degenerate layer with no inbound data.
			if pe.issued[pe.round] && pe.arrived[pe.round] == pe.expected[pe.round] && pe.expected[pe.round] > 0 ||
				sc.fetchFlits == 0 {
				pe.computing = true
				pe.busyUntil = now + g.computeRound
				b.comp = true
			}
			continue
		}

		// Streaming pipeline: MAC completion, then decode completion,
		// then decode start, then MAC start — ordered so a finished
		// MAC round releases its buffer to the decompression unit and
		// a finished decode feeds the MAC lanes in the same cycle.
		if pe.computing && now >= pe.busyUntil {
			pe.computing = false
			pe.macFreeAt = now
			if buf != nil {
				buf.Span(sc.compSpan, "compute", pe.node, pe.busyUntil-g.computeRound, g.computeRound,
					obs.KV{K: "round", V: uint64(pe.round)})
			}
			if sc.outFlits > 0 {
				npkts, err := nw.SendMessage(pe.node, pe.mi, sc.outFlits, msgTag(tagOutput, i, pe.round))
				if err != nil {
					return b, err
				}
				sc.outstandingWrites += npkts
			}
			pe.round++
			pe.roundSince = now
			sc.advanced = true
			if pe.round >= g.simRounds {
				pe.done = true
				continue
			}
		}
		// Decode completion: the tile is consumable once the unit has
		// spent its decodeRound cycles AND the stream has fully
		// landed — streaming ingest works on flits as they arrive, so
		// a slow NoC extends the decode, never the other way round.
		if pe.decoding && now >= pe.decodeUntil {
			d := pe.decRound
			if pe.arrived[d] == pe.expected[d] && pe.expected[d] > 0 {
				pe.decoding = false
				pe.decoded[d] = true
				if buf != nil {
					buf.Span(spanDecode, "decompress", pe.node, pe.decodeFrom, now-pe.decodeFrom,
						obs.KV{K: "round", V: uint64(d)})
				}
				pe.decRound++
			}
		}
		// Refill: the unit starts on the first flits of tile decRound,
		// provided it is free and the tile's buffer is available
		// (double-buffered: at most one tile ahead of the one the MACs
		// consume). Tiles with no decode work become consumable the
		// moment they fully arrive.
		for !pe.decoding && pe.decRound < g.simRounds && pe.decRound <= pe.round+1 {
			d := pe.decRound
			if g.decodeRound == 0 {
				if pe.issued[d] && pe.arrived[d] == pe.expected[d] && pe.expected[d] > 0 {
					pe.decoded[d] = true
					pe.decRound++
					continue
				}
				break
			}
			if pe.arrived[d] == 0 {
				break
			}
			pe.decoding = true
			pe.decodeFrom = now
			pe.decodeUntil = now + g.decodeRound
		}
		if pe.computing {
			b.comp = true
			continue
		}
		switch {
		case pe.decoded[pe.round]:
			if buf != nil {
				// A late decode shows as a stall span covering the
				// gap between MAC readiness (tile arrived, lanes
				// free) and this start.
				from := pe.arriveAt[pe.round]
				if pe.macFreeAt > from {
					from = pe.macFreeAt
				}
				if now > from {
					buf.Span(spanDecodeStall, "compute", pe.node, from, now-from,
						obs.KV{K: "round", V: uint64(pe.round)})
				}
			}
			pe.computing = true
			pe.busyUntil = now + g.computeRound
			b.comp = true
		case sc.fetchFlits == 0:
			// Degenerate layer with no inbound data: compute directly.
			pe.computing = true
			pe.busyUntil = now + g.computeRound
			b.comp = true
		case pe.issued[pe.round] && pe.arrived[pe.round] == pe.expected[pe.round] && pe.expected[pe.round] > 0:
			// The tile is on chip but the decompression unit has not
			// made it consumable: the MAC lanes are decode-stalled.
			b.stall = true
		}
	}
	return b, nil
}

// finishLayer extrapolates the simulated rounds to the full layer and
// assembles its result, energy and metrics.
func (s *Simulator) finishLayer(spec LayerSpec, sc *layerScratch) LayerResult {
	g := sc.g
	nw := sc.nw
	lat := sc.lat
	scale := float64(g.rounds) / float64(g.simRounds)
	simCycles := nw.Cycle()
	st := nw.Stats()

	var traffic Traffic
	traffic.NoCFlits = st.FlitsInjected
	traffic.FlitHops = st.RouterTraverse
	traffic.LinkHops = st.LinkTraverse
	traffic.DRAMReadWords = sc.dramReadWords
	traffic.DRAMWriteWords = sc.dramWriteWords
	traffic.CorruptFlits = st.CorruptFlits
	traffic.Retransmits = st.RetransmittedPackets
	traffic.scale(scale)
	lat.scale(scale)
	cycles := uint64(float64(simCycles) * scale)

	lr := LayerResult{
		Name:      spec.Name,
		Kind:      spec.Kind,
		Flow:      g.flow,
		Cycles:    cycles,
		Latency:   lat,
		Traffic:   traffic,
		Rounds:    g.rounds,
		SimRounds: g.simRounds,
	}
	lr.Energy = s.layerEnergy(spec, g, lr)
	if buf := sc.buf; buf != nil {
		// The whole layer as one span over the simulated (pre-scale)
		// cycles; extrapolated rounds are not traced, only counted.
		buf.Span(spec.Name, "layer", -1, 0, simCycles,
			obs.KV{K: "rounds", V: uint64(g.rounds)}, obs.KV{K: "sim_rounds", V: uint64(g.simRounds)})
	}
	if m := s.obsv.M(); m != nil {
		// Counters add the post-scale values, so metric totals match the
		// reported Result regardless of how many rounds were simulated.
		m.Counter("accel_layers").Inc()
		m.Counter("accel_cycles_total").Add(lr.Cycles)
		m.Counter("accel_cycles_memory").Add(lat.Memory)
		m.Counter("accel_cycles_communication").Add(lat.Communication)
		m.Counter("accel_cycles_computation").Add(lat.Computation)
		if s.cfg.Overlap {
			// Only registered in overlap mode so serial-mode metric
			// dumps stay byte-identical to the pre-overlap goldens.
			m.Counter("accel_cycles_decode_stall").Add(lat.DecodeStall)
		}
		m.Counter("accel_dram_read_words").Add(traffic.DRAMReadWords)
		m.Counter("accel_dram_write_words").Add(traffic.DRAMWriteWords)
		m.Counter("accel_noc_flits").Add(traffic.NoCFlits)
		m.Counter("accel_energy_pj").Add(uint64(lr.Energy.Total()))
		occ := m.Histogram("noc_router_traversals", obs.Pow2Buckets(24))
		for _, v := range nw.PerRouterTraversals() {
			occ.Observe(v)
		}
	}
	return lr
}

// layerEnergy back-annotates the energy breakdown from the (extrapolated)
// activity counters plus the analytic computation counts.
func (s *Simulator) layerEnergy(spec LayerSpec, g layerGeometry, lr LayerResult) EnergyBreakdown {
	p := s.cfg.Energy
	var e EnergyBreakdown

	// Communication.
	e.CommDyn = float64(lr.Traffic.FlitHops)*p.RouterFlitPJ + float64(lr.Traffic.LinkHops)*p.LinkFlitPJ
	routers := float64(s.cfg.Mesh.Width * s.cfg.Mesh.Height)
	links := float64(s.cfg.meshLinks())
	e.CommLeak = p.LeakagePJ(routers*p.RouterLeakW+links*p.LinkLeakW, lr.Cycles)

	// Computation: real MAC work plus decompression work. Serial mode
	// keeps the legacy uniform per-weight accumulator charge; overlap
	// mode charges the codec's decode-rate model — stream bits through
	// the front end plus regenerated weights through the back end.
	e.CompDyn = float64(spec.MACs) * p.MACPJ
	if spec.Compressed {
		if s.cfg.Overlap {
			dm := core.LookupDecodeModel(spec.Codec)
			e.CompDyn += dm.TileEnergyPJ(spec.WeightBytes*8, spec.WeightCount)
		} else {
			e.CompDyn += float64(spec.WeightCount) * p.DecompressPJ
		}
	}
	numPEs := float64(len(s.pes))
	e.CompLeak = p.LeakagePJ(numPEs*p.PELeakW, lr.Cycles)

	// Local memory: every inbound byte is written once; operands are read
	// with register-level reuse (~one 64-bit word per two MACs).
	inboundWords := float64(ceilDiv((g.wBytesPE+g.iBytesPE)*uint64(len(s.pes)), wordBytes))
	outWords := float64(ceilDiv(g.oBytesPE*uint64(len(s.pes)), wordBytes))
	readWords := 0.5 * float64(g.opsTotal)
	e.LocalDyn = (inboundWords+outWords)*p.LocalWritePJ + (readWords+outWords)*p.LocalReadPJ
	e.LocalLeak = p.LeakagePJ(numPEs*p.LocalLeakW, lr.Cycles)

	// Main memory.
	e.MainDyn = float64(lr.Traffic.DRAMReadWords+lr.Traffic.DRAMWriteWords) * p.DRAMWordPJ
	e.MainLeak = p.LeakagePJ(p.DRAMLeakW, lr.Cycles)
	return e
}
