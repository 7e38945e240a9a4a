package nn

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// The prefix memo lets repeated evaluations of one input list skip the
// layers whose parameters did not change, as in a compression search
// that trials one layer at a time. Per input it keeps the cut frontier
// (Graph.Frontier) before each parameterized layer, and a pass resumes
// every input from the deepest stored cut whose prefix parameters are
// bit-identical to the ones the cut was computed from.
//
// Nothing is trusted across calls. Every BeginMemo compares the live
// parameters and the inputs (pointers, shapes and bits) against
// snapshots, so no mutation path — an optimizer step, SetWeightStream,
// LoadWeights, a direct Data write, another input list or order — can
// serve a stale activation. Every layer's forward is a deterministic
// function of its inputs and parameters, so a resumed output is
// bit-identical to a full forward. Layer configuration (strides, Eps,
// ...) and topology are taken as fixed once a layer is added; a graph
// that grows is re-cut.
//
// A cut is stored only when two consecutive passes computed it from
// bit-identical parameters. A search's one-pass trial weights therefore
// never overwrite the committed prefix: the trial pass resumes below the
// trial layer and stores nothing past it, and the revert that follows
// matches the pass before the trial again.
type prefixMemo struct {
	mu sync.Mutex

	// Topology the cuts were derived from.
	nodes  int
	output string
	cuts   []memoCut

	// base[j] holds the parameters of cuts[j].layer that the stored cuts
	// past j were computed from, last[j] those of the previous pass. The
	// last cut's layer precedes no cut and is not snapshotted.
	base, last [][]float32
	stored     int // cuts[:stored] hold activations for every input

	inputs []*tensor.Tensor     // the inputs of the stored cuts
	bits   []*tensor.Tensor     // clones of their shapes and data
	acts   [][][]*tensor.Tensor // acts[i][j][k]: input i, cut j, frontier node k
}

// memoCut is the cut before one parameterized layer.
type memoCut struct {
	layer Layer
	start int      // execution index of layer
	front []string // frontier nodes, InputName excluded (it is never stored)
}

// MemoPass is one memoized evaluation of an input list, from
// Graph.BeginMemo to End. Forward may run concurrently on distinct
// inputs, one Runner per goroutine.
type MemoPass struct {
	g      *Graph
	xs     []*tensor.Tensor
	resume int // cut every input resumes from; -1 runs from the input
	keep   int // cuts (resume, keep] are stored as they are computed
	done   atomic.Int64
}

// BeginMemo starts a memoized evaluation of g over xs. Call Forward
// once for every input, then End. The pass holds g's memo until End, so
// concurrent memoized evaluations of one graph run one after another;
// g's parameters and the inputs must not change until End. An empty
// memo resumes nothing, so a first pass is exactly a full forward.
func (g *Graph) BeginMemo(xs []*tensor.Tensor) *MemoPass {
	m := &g.memo
	m.mu.Lock()
	m.recut(g)
	if !m.sameInputs(xs) {
		m.setInputs(xs)
	}
	p := &MemoPass{g: g, xs: xs, resume: -1, keep: -1}
	if len(m.cuts) == 0 {
		return p
	}
	// Cut j depends on the parameters of cuts[:j]. It is valid while they
	// match base (j <= d), and it may be stored this pass when they match
	// the previous pass (j <= e).
	n := len(m.cuts) - 1
	d, e := n, n
	for j := 0; j < n; j++ {
		ps := m.cuts[j].layer.Params()
		if d == n && !equalBits(ps, m.base[j]) {
			d = j
		}
		if !equalBits(ps, m.last[j]) {
			e = min(e, j)
			m.last[j] = snapshot(ps, m.last[j])
		}
	}
	p.resume, p.keep = min(m.stored-1, d), e
	if e > d {
		// Cuts past e, computed from the old base, go stale.
		for j := d; j < e; j++ {
			m.base[j] = resize(m.base[j], len(m.last[j]))
			copy(m.base[j], m.last[j])
		}
		m.stored = e + 1
	} else {
		m.stored = max(m.stored, e+1)
	}
	return p
}

// Forward runs the graph on input i of the pass through r, resuming from
// the pass's cut and storing the cuts it may keep. The returned tensor
// is owned by r (or the memo) and valid until r's next forward.
func (p *MemoPass) Forward(r *Runner, i int) (*tensor.Tensor, error) {
	if r.g != p.g {
		return nil, errors.New("nn: memo pass run by a Runner of another graph")
	}
	m := &p.g.memo
	clear(r.acts)
	r.acts[InputName] = p.xs[i]
	pos := 0
	if p.resume >= 0 {
		c := m.cuts[p.resume]
		for k, name := range c.front {
			r.acts[name] = m.acts[i][p.resume][k]
		}
		pos = c.start
	}
	for j := p.resume + 1; j <= p.keep; j++ {
		c := m.cuts[j]
		if err := r.run(pos, c.start); err != nil {
			return nil, err
		}
		pos = c.start
		for k, name := range c.front {
			m.acts[i][j][k] = copyInto(m.acts[i][j][k], r.acts[name])
		}
	}
	if err := r.run(pos, len(p.g.order)); err != nil {
		return nil, err
	}
	p.done.Add(1)
	return r.acts[p.g.output], nil
}

// End releases g's memo. A pass that failed, or skipped an input, may
// have stored only part of its cuts, so it leaves the memo empty.
func (p *MemoPass) End(err error) {
	m := &p.g.memo
	if err != nil || p.done.Load() != int64(len(p.xs)) {
		m.stored = 0
	}
	m.mu.Unlock()
}

// recut derives the cuts from g's topology when it changed since the
// last pass, dropping everything stored.
func (m *prefixMemo) recut(g *Graph) {
	if m.nodes == len(g.order) && m.output == g.output {
		return
	}
	m.nodes, m.output = len(g.order), g.output
	m.cuts = nil
	for i, name := range g.order {
		l := g.nodes[name].layer
		if NumParams(l) == 0 {
			continue
		}
		front := g.frontier(i)
		if len(front) > 0 && front[0] == InputName {
			front = front[1:]
		}
		m.cuts = append(m.cuts, memoCut{layer: l, start: i, front: front})
	}
	n := max(len(m.cuts)-1, 0)
	m.base, m.last = make([][]float32, n), make([][]float32, n)
	m.stored = 0
	m.inputs, m.bits, m.acts = nil, nil, nil
}

// sameInputs reports whether xs are the memo's inputs: the same tensors
// holding the same shapes and bits.
func (m *prefixMemo) sameInputs(xs []*tensor.Tensor) bool {
	if len(xs) != len(m.inputs) {
		return false
	}
	for i, x := range xs {
		if x != m.inputs[i] {
			return false
		}
		if x != nil && (!sameDims(x, m.bits[i]) || !equalData(x.Data, m.bits[i].Data)) {
			return false
		}
	}
	return true
}

// setInputs makes xs the memo's inputs, with no cut stored.
func (m *prefixMemo) setInputs(xs []*tensor.Tensor) {
	m.stored = 0
	m.inputs = append(m.inputs[:0], xs...)
	for len(m.bits) < len(xs) {
		m.bits = append(m.bits, nil)
	}
	m.bits = m.bits[:len(xs)]
	for i, x := range xs {
		if x == nil {
			m.bits[i] = nil
			continue
		}
		m.bits[i] = copyInto(m.bits[i], x)
	}
	for len(m.acts) < len(xs) {
		a := make([][]*tensor.Tensor, len(m.cuts))
		for j, c := range m.cuts {
			a[j] = make([]*tensor.Tensor, len(c.front))
		}
		m.acts = append(m.acts, a)
	}
	m.acts = m.acts[:len(xs)]
}

// copyInto copies src into dst, reallocating dst when its shape differs,
// and returns it.
func copyInto(dst, src *tensor.Tensor) *tensor.Tensor {
	if dst == nil || !sameDims(dst, src) {
		return src.Clone()
	}
	copy(dst.Data, src.Data)
	return dst
}

// equalData reports whether a and b hold the same float32 bit patterns
// (so NaN payloads and signed zeros count).
func equalData(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// equalBits reports whether the parameters ps, concatenated, are
// bit-identical to snap.
func equalBits(ps []Param, snap []float32) bool {
	off := 0
	for _, p := range ps {
		n := len(p.T.Data)
		if off+n > len(snap) || !equalData(p.T.Data, snap[off:off+n]) {
			return false
		}
		off += n
	}
	return off == len(snap)
}

// snapshot concatenates the parameters ps into dst's storage.
func snapshot(ps []Param, dst []float32) []float32 {
	n := 0
	for _, p := range ps {
		n += len(p.T.Data)
	}
	dst = resize(dst, n)
	off := 0
	for _, p := range ps {
		off += copy(dst[off:], p.T.Data)
	}
	return dst
}

// resize returns s with length n, reallocating to exactly n only when s
// is too small.
func resize(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
