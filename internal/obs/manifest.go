package obs

import (
	"encoding/json"

	"repro/internal/atomicio"
)

// Manifest is the self-describing record written alongside a run's
// result files: everything needed to reproduce the numbers (config,
// seeds, codec plan, kernel dispatch) plus the deterministic
// headline results. It deliberately excludes anything that varies
// between identical runs — worker counts, wall-clock durations,
// hostnames — so manifests from the same configuration are
// byte-identical at any parallelism.
type Manifest struct {
	Tool       string `json:"tool"`
	Experiment string `json:"experiment,omitempty"`
	Model      string `json:"model,omitempty"`

	Seed      int64   `json:"seed,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	Delta     float64 `json:"delta,omitempty"`

	// Execution environment choices that change the numbers or the
	// speed at which they are produced.
	MatMulKernel     string   `json:"matmul_kernel"`
	AvailableKernels []string `json:"matmul_kernels_available,omitempty"`
	VecmmOverride    string   `json:"vecmm_override,omitempty"`

	// Accelerator geometry.
	Mesh     [2]int `json:"mesh,omitempty"`
	MemNodes []int  `json:"mem_nodes,omitempty"`
	MACLanes int    `json:"mac_lanes,omitempty"`

	// Per-layer codec assignment (codec plan), when compression is on.
	CodecPlan []CodecAssignment `json:"codec_plan,omitempty"`

	// Headline results and per-layer tier timings, all in deterministic
	// simulated cycles / picojoules — never wall time.
	Results     *RunResults  `json:"results,omitempty"`
	TierTimings []TierTiming `json:"tier_timings,omitempty"`

	TraceEvents int `json:"trace_events,omitempty"`
}

// CodecAssignment records one layer's codec choice from the planner.
type CodecAssignment struct {
	Layer string `json:"layer"`
	Codec string `json:"codec"`
}

// RunResults holds the headline deterministic outputs of a run.
type RunResults struct {
	TotalCycles   uint64  `json:"total_cycles"`
	EnergyPJ      float64 `json:"energy_pj,omitempty"`
	MemoryCycles  uint64  `json:"memory_cycles,omitempty"`
	CommCycles    uint64  `json:"communication_cycles,omitempty"`
	ComputeCycles uint64  `json:"computation_cycles,omitempty"`
	FlitsInjected uint64  `json:"flits_injected,omitempty"`
	DRAMReads     uint64  `json:"dram_reads,omitempty"`
	DRAMWrites    uint64  `json:"dram_writes,omitempty"`
	Accuracy      float64 `json:"accuracy,omitempty"`
}

// TierTiming is one layer's simulated-cycle breakdown: the same tiers
// as accel.LatencyBreakdown, keyed by layer so traces and manifests
// cross-reference.
type TierTiming struct {
	Layer         string  `json:"layer"`
	TotalCycles   uint64  `json:"total_cycles"`
	MemoryCycles  uint64  `json:"memory_cycles"`
	CommCycles    uint64  `json:"communication_cycles"`
	ComputeCycles uint64  `json:"computation_cycles"`
	EnergyPJ      float64 `json:"energy_pj,omitempty"`
}

// Encode renders the manifest as stable, human-diffable JSON
// (two-space indent, trailing newline). encoding/json emits struct
// fields in declaration order, so output is byte-stable.
func (m *Manifest) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest to path atomically: a manifest that
// vouches for a run's reproducibility must never itself be a torn
// write.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.Encode()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, b, 0o644)
}
