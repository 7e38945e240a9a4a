package nn

import (
	"fmt"
	"reflect"

	"repro/internal/tensor"
)

// Scratch is a keyed arena of reusable buffers for allocation-free
// forward passes. Layers key their scratch by layer name (unique within
// a graph), so one Scratch serves a whole graph: after the first pass
// every buffer is warm and steady-state forwards allocate nothing.
//
// Ownership rules (see DESIGN.md "Compute kernels"):
//   - A Scratch (and any Runner holding one) is single-goroutine state;
//     concurrent evaluation uses one Scratch/Runner per goroutine over
//     the shared read-only graph.
//   - Tensors returned by Layer.Forward and Runner methods are views
//     into the arena: they are valid until the next forward call that
//     uses the same Scratch. Callers that need them longer must Clone.
type Scratch struct {
	floats  map[string][]float32
	f64s    map[string][]float64
	tensors map[string]*tensor.Tensor

	// conv holds the Conv2D weight preparations of the memo pass a
	// MemoPass.Forward is running through this arena, nil otherwise.
	conv map[*Conv2D]*convPrep
}

// NewScratch creates an empty scratch arena.
func NewScratch() *Scratch {
	return &Scratch{
		floats:  make(map[string][]float32),
		f64s:    make(map[string][]float64),
		tensors: make(map[string]*tensor.Tensor),
	}
}

// Keys are passed in two parts (layer name + role suffix) so the
// steady-state map lookups compile to Go's allocation-free m[a+b] form;
// the concatenated key string is only materialized on the first (miss)
// call.

// Floats returns the keyed float32 buffer, grown to at least n elements.
// Contents are unspecified (possibly stale); callers must overwrite or
// zero what they read.
func (s *Scratch) Floats(name, sub string, n int) []float32 {
	if buf := s.floats[name+sub]; cap(buf) >= n {
		return buf[:n]
	}
	buf := make([]float32, n)
	s.floats[name+sub] = buf
	return buf
}

// Float64s is Floats for float64 accumulator buffers.
func (s *Scratch) Float64s(name, sub string, n int) []float64 {
	if buf := s.f64s[name+sub]; cap(buf) >= n {
		return buf[:n]
	}
	buf := make([]float64, n)
	s.f64s[name+sub] = buf
	return buf
}

// Tensor returns the keyed scratch tensor with the given shape, reusing
// the previous backing array when it is large enough. Contents are
// unspecified. In steady state (same key, same shape) the very same
// *Tensor is returned, so repeated forwards allocate nothing.
func (s *Scratch) Tensor(name, sub string, shape ...int) *tensor.Tensor {
	t := s.tensors[name+sub]
	if t != nil && shapeEqual(t, shape) {
		return t
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	var data []float32
	if t != nil && cap(t.Data) >= n {
		data = t.Data[:n]
	} else {
		data = make([]float32, n)
	}
	nt, err := tensor.FromSlice(data, shape...)
	if err != nil {
		panic(fmt.Sprintf("nn: scratch tensor %q: %v", name+sub, err))
	}
	s.tensors[name+sub] = nt
	return nt
}

// TensorLike is Tensor with the shape taken from x, without
// materializing a shape slice on the steady-state path.
func (s *Scratch) TensorLike(name, sub string, x *tensor.Tensor) *tensor.Tensor {
	t := s.tensors[name+sub]
	if t != nil && sameDims(t, x) {
		return t
	}
	return s.Tensor(name, sub, x.Shape()...)
}

func sameDims(t, x *tensor.Tensor) bool {
	if t.Rank() != x.Rank() {
		return false
	}
	for i := 0; i < t.Rank(); i++ {
		if t.Dim(i) != x.Dim(i) {
			return false
		}
	}
	return true
}

// View returns the keyed tensor view over data with the given shape,
// re-wrapping only when the backing slice or shape changed since the
// last call. It shares data, never copies.
func (s *Scratch) View(name, sub string, data []float32, shape ...int) (*tensor.Tensor, error) {
	t := s.tensors[name+sub]
	if t != nil && shapeEqual(t, shape) && len(t.Data) == len(data) && &t.Data[0] == &data[0] {
		return t, nil
	}
	nt, err := tensor.FromSlice(data, shape...)
	if err != nil {
		return nil, err
	}
	s.tensors[name+sub] = nt
	return nt, nil
}

func shapeEqual(t *tensor.Tensor, shape []int) bool {
	if t.Rank() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// Runner executes a Graph with a persistent Scratch, reusing per-node
// activation buffers across calls; it is the package's only graph
// executor. The graph itself stays read-only and shareable: use one
// Runner per goroutine for concurrent evaluation. A fresh Runner's arena
// is empty, so its first forward allocates every buffer; code that
// evaluates repeatedly borrows warm Runners with AcquireRunner and
// returns them with Release.
//
// The activations a Runner returns (including the ForwardAll map) are
// owned by the Runner and valid only until its next forward call.
type Runner struct {
	g    *Graph
	s    *Scratch
	acts map[string]*tensor.Tensor
	xs   []*tensor.Tensor
}

// WithScratch returns a Runner that evaluates g through a fresh scratch
// arena.
func (g *Graph) WithScratch() *Runner {
	return &Runner{
		g:    g,
		s:    NewScratch(),
		acts: make(map[string]*tensor.Tensor, len(g.order)+1),
	}
}

// AcquireRunner returns an idle Runner over g, with its arena warm from
// earlier forwards, or a fresh one when none is idle. Pair it with
// Release. Safe for concurrent use.
func (g *Graph) AcquireRunner() *Runner {
	g.runnersMu.Lock()
	defer g.runnersMu.Unlock()
	if n := len(g.idle); n > 0 {
		r := g.idle[n-1]
		g.idle = g.idle[:n-1]
		return r
	}
	return g.WithScratch()
}

// Release returns r to its graph's idle list, which keeps it for the
// next AcquireRunner: a graph builds at most as many Runners as were
// ever out at once. Neither r nor any tensor it returned may be used
// afterwards. Only the arena's buffers carry over: every forward
// overwrites what it reads, so a reused Runner computes the same bits
// as a fresh one.
func (r *Runner) Release() {
	clear(r.acts) // drop references to the caller's inputs
	r.g.runnersMu.Lock()
	r.g.idle = append(r.g.idle, r)
	r.g.runnersMu.Unlock()
}

// Forward runs the graph on x and returns the output activation (owned
// by the Runner; valid until the next call).
func (r *Runner) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	acts, err := r.ForwardAll(x)
	if err != nil {
		return nil, err
	}
	return acts[r.g.output], nil
}

// ForwardAll runs the graph and returns every node's activation keyed by
// layer name (plus InputName). The map enables cached-prefix evaluation:
// when only one layer's parameters change, ForwardFrom re-runs just the
// suffix. The map and its tensors are owned by the Runner and
// overwritten by the next forward call; Clone what must survive.
func (r *Runner) ForwardAll(x *tensor.Tensor) (map[string]*tensor.Tensor, error) {
	if len(r.g.order) == 0 {
		return nil, fmt.Errorf("nn: empty graph")
	}
	clear(r.acts)
	r.acts[InputName] = x
	if err := r.run(0, len(r.g.order)); err != nil {
		return nil, err
	}
	return r.acts, nil
}

// ForwardFrom re-executes the graph from the named layer (inclusive) to
// the output, reading earlier activations from acts, which must come
// from a ForwardAll (of any Runner) on the same input. A foreign acts is
// not modified; when acts is this Runner's own ForwardAll map, the
// suffix entries are updated in place. The returned tensor is
// Runner-owned.
func (r *Runner) ForwardFrom(acts map[string]*tensor.Tensor, from string) (*tensor.Tensor, error) {
	start := r.g.index(from)
	if start < 0 {
		return nil, fmt.Errorf("nn: unknown layer %q", from)
	}
	// acts may be r.acts itself (this Runner's own ForwardAll map);
	// clearing it then would discard the prefix.
	if reflect.ValueOf(acts).UnsafePointer() != reflect.ValueOf(r.acts).UnsafePointer() {
		clear(r.acts)
		for k, v := range acts {
			r.acts[k] = v
		}
	}
	if err := r.run(start, len(r.g.order)); err != nil {
		return nil, err
	}
	return r.acts[r.g.output], nil
}

// run executes nodes order[start:end] against the runner's activation
// map.
func (r *Runner) run(start, end int) error {
	for _, name := range r.g.order[start:end] {
		n := r.g.nodes[name]
		xs := r.xs[:0]
		for _, in := range n.inputs {
			a, ok := r.acts[in]
			if !ok || a == nil {
				return fmt.Errorf("nn: layer %q: missing activation for %q", name, in)
			}
			xs = append(xs, a)
		}
		r.xs = xs[:0]
		y, err := n.layer.Forward(xs, r.s)
		if err != nil {
			return fmt.Errorf("nn: layer %q: %w", name, err)
		}
		r.acts[name] = y
	}
	return nil
}
