// Package obs is the observability layer of the simulation stack: a
// metrics registry (counters, gauges, fixed-bucket histograms with
// percentile extraction), a structured span/event tracer exporting
// Chrome trace-event JSON (Perfetto-loadable) and CSV timelines, and
// per-run reproducibility manifests written alongside result CSVs.
//
// Two invariants make this a subsystem rather than printf:
//
//   - Zero overhead when disabled. Every handle type (*Observer,
//     *Metrics, *Counter, *Gauge, *Histogram, *Trace, *Buffer) is inert
//     with a nil receiver: methods are single-branch no-ops that never
//     allocate. Instrumented hot paths hold concrete nil pointers and
//     guard emissions with one pointer comparison, so a disabled run
//     costs zero allocations and is pinned under 2% runtime overhead by
//     the alloc tests and on/off benchmark pairs in internal/noc and
//     internal/accel.
//
//   - Deterministic output. Event order is keyed by (cycle, node, seq)
//     — simulated time, mesh geometry, and per-buffer emission index —
//     never wall clock. Counters and histogram buckets are additive
//     atomics, so parallel layer simulations produce the same exported
//     values at any worker count; trace buffers are keyed by a
//     deterministic (scope, index) pair and sorted before export.
//     Exports are therefore byte-identical across -workers counts.
package obs

// Observer bundles the metrics registry and the tracer handed to an
// instrumented component. A nil *Observer disables everything; either
// field may also be nil individually.
type Observer struct {
	Metrics *Metrics
	Trace   *Trace
}

// New returns an Observer with both metrics and tracing enabled.
func New() *Observer {
	return &Observer{Metrics: NewMetrics(), Trace: NewTrace()}
}

// M returns the metrics registry, or nil when the observer is disabled.
// The returned (possibly nil) *Metrics is itself safe to use.
func (o *Observer) M() *Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// T returns the tracer, or nil when the observer is disabled. The
// returned (possibly nil) *Trace is itself safe to use.
func (o *Observer) T() *Trace {
	if o == nil {
		return nil
	}
	return o.Trace
}

// LayerBuffer returns the trace buffer for one unit of work (scope is
// typically the model name, idx the layer index). Nil when tracing is
// disabled.
func (o *Observer) LayerBuffer(scope string, idx int, label string) *Buffer {
	if o == nil || o.Trace == nil {
		return nil
	}
	return o.Trace.Buffer(scope, idx, label)
}
