package nn

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/tensor"
)

// The prefix memo lets repeated evaluations of one input list skip the
// layers whose parameters did not change, as in a compression search
// that trials one layer at a time. Per input it keeps the cut frontier
// (Graph.Frontier) before each parameterized layer, computed from one or
// more versions of the prefix parameters, and a pass resumes every input
// from the deepest stored cut whose prefix parameters are bit-identical
// to the live ones.
//
// Nothing is trusted across calls. Every BeginMemo compares the live
// parameters and the inputs (pointers, shapes and bits) against
// snapshots, so no mutation path — an optimizer step, SetWeightStream,
// LoadWeights, a direct Data write, another input list or order — can
// serve a stale activation. Every layer's forward is a deterministic
// function of its inputs and parameters, so a resumed output is
// bit-identical to a full forward. Layer configuration (strides, Eps,
// ...), the parameter tensors a layer's Params returns and topology are
// taken as fixed once a layer is added; a graph that grows is re-cut.
//
// Every pass stores every cut it computes, keyed by the parameter
// versions it was computed from: the parameters of each parameterized
// layer are snapshotted once per distinct value (a paramVersion), and a
// stored cut (a memoVariant) names the versions of its prefix. A
// search's trial of layer X therefore leaves the cuts past X computed on
// the trial weights, and when the search commits that trial, the next
// trial of any later layer resumes at its own layer.
//
// Retention is fixed by the topology. Cut j, whose prefix holds j
// parameterized layers, keeps at most j+2 variants: one per prefix layer
// a search round has trialed, the prefix with none trialed, and the
// committed prefix the first trial after a commit cannot yet tell from
// the one it replaced. A full cut evicts the variant whose least
// recently live version is oldest. Evicted and dropped buffers are
// reused, so a warm pass allocates nothing.
type prefixMemo struct {
	mu sync.Mutex

	// Topology the cuts were derived from.
	nodes  int
	output string
	cuts   []memoCut

	// versions[j] are the stored parameter values of cuts[j].layer; the
	// last cut's layer precedes no cut and is not snapshotted.
	versions [][]*paramVersion
	spare    [][]*paramVersion // unreferenced versions, buffers kept for reuse
	live     []*paramVersion   // this pass's version of each snapshotted layer
	clock    uint64            // passes begun

	inputs []*tensor.Tensor // the inputs of the stored cuts
	bits   []*tensor.Tensor // clones of their shapes and data

	prep *Prep    // the weight preparations of the graph's convolutions
	pass MemoPass // the pass holding the memo
}

// memoCut is the cut before one parameterized layer.
type memoCut struct {
	layer    Layer
	params   []Param  // layer.Params(), fixed once the layer is added
	start    int      // execution index of layer
	front    []string // frontier nodes, InputName excluded (it is never stored)
	variants []*memoVariant
	spare    []*memoVariant // evicted or dropped variants, buffers kept for reuse
}

// memoVariant is one stored cut: its frontier for every input, computed
// from the prefix parameter versions key.
type memoVariant struct {
	key  []*paramVersion    // versions of the layers of cuts[:j]
	acts [][]*tensor.Tensor // acts[i][k]: input i, frontier node k
}

// paramVersion is a snapshot of one layer's parameters, concatenated.
type paramVersion struct {
	data []float32
	live uint64 // the last pass whose parameters were these
	refs int    // variants keying on it, counted at BeginMemo
}

// MemoPass is one memoized evaluation of an input list, from
// Graph.BeginMemo to End. Forward may run concurrently on distinct
// inputs, one Runner per goroutine.
type MemoPass struct {
	g      *Graph
	xs     []*tensor.Tensor
	resume int            // cut every input resumes from; -1 runs from the input
	from   *memoVariant   // the variant at cut resume
	store  []*memoVariant // store[j] receives cut j, for every j > resume
	done   atomic.Int64
}

// BeginMemo starts a memoized evaluation of g over xs. Call Forward
// once for every input, then End. The pass holds g's memo until End, so
// concurrent memoized evaluations of one graph run one after another;
// g's parameters and the inputs must not change until End, and the
// returned pass must not be used after it. An empty memo resumes
// nothing, so a first pass is exactly a full forward.
func (g *Graph) BeginMemo(xs []*tensor.Tensor) *MemoPass {
	m := &g.memo
	m.mu.Lock()
	m.recut(g)
	if !m.sameInputs(xs) {
		m.setInputs(xs)
	}
	p := &m.pass
	p.g, p.xs, p.resume, p.from = g, xs, -1, nil
	p.done.Store(0)
	p.store = p.store[:0]
	if len(m.cuts) == 0 {
		return p
	}
	m.clock++
	m.collect()
	m.matchLive()
	for j := len(m.cuts) - 1; j >= 0 && p.from == nil; j-- {
		if v := m.cuts[j].find(m.live[:j]); v != nil {
			p.resume, p.from = j, v
		}
	}
	for j := range m.cuts {
		var v *memoVariant
		if j > p.resume {
			v = m.slot(j, len(xs))
		}
		p.store = append(p.store, v)
	}
	start := 0
	if p.resume >= 0 {
		start = m.cuts[p.resume].start
	}
	for _, name := range g.order[start:] {
		if c, ok := g.nodes[name].layer.(*Conv2D); ok {
			if wp := m.prep.of(c.W); wp != nil {
				wp.derive()
			}
		}
	}
	return p
}

// Forward runs the graph on input i of the pass through r, resuming from
// the pass's cut and storing every cut past it. The returned tensor is
// owned by r (or the memo) and valid until r's next forward.
func (p *MemoPass) Forward(r *Runner, i int) (*tensor.Tensor, error) {
	if r.g != p.g {
		return nil, errors.New("nn: memo pass run by a Runner of another graph")
	}
	r.s.prep = p.g.memo.prep
	y, err := p.forward(r, i)
	r.s.prep = nil // the preparations are valid for this pass only
	return y, err
}

// forward is Forward with r's arena reading the pass's preparations.
func (p *MemoPass) forward(r *Runner, i int) (*tensor.Tensor, error) {
	m := &p.g.memo
	clear(r.acts)
	r.acts[InputName] = p.xs[i]
	pos := 0
	if p.from != nil {
		c := &m.cuts[p.resume]
		for k, name := range c.front {
			r.acts[name] = p.from.acts[i][k]
		}
		pos = c.start
	}
	for j := p.resume + 1; j < len(m.cuts); j++ {
		c := &m.cuts[j]
		if err := r.run(pos, c.start); err != nil {
			return nil, err
		}
		pos = c.start
		acts := p.store[j].acts[i]
		for k, name := range c.front {
			acts[k] = copyInto(acts[k], r.acts[name])
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
		m.dropAll()
	}
	p.xs, p.from = nil, nil
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
	m.prep = &Prep{}
	for i, name := range g.order {
		l := g.nodes[name].layer
		if c, ok := l.(*Conv2D); ok {
			m.prep.weights = append(m.prep.weights, weightPrep{w: c.W})
		}
		if NumParams(l) == 0 {
			continue
		}
		front := g.frontier(i)
		if len(front) > 0 && front[0] == InputName {
			front = front[1:]
		}
		m.cuts = append(m.cuts, memoCut{layer: l, params: l.Params(), start: i, front: front})
	}
	n := max(len(m.cuts)-1, 0)
	m.versions, m.spare = make([][]*paramVersion, n), make([][]*paramVersion, n)
	m.live = make([]*paramVersion, n)
	m.inputs, m.bits = nil, nil
}

// capacity is the number of variants cut j keeps (see prefixMemo).
func capacity(j int) int { return j + 2 }

// collect counts the variants keying on each version and moves the
// versions none keys on to the spare lists.
func (m *prefixMemo) collect() {
	for _, vs := range m.versions {
		for _, v := range vs {
			v.refs = 0
		}
	}
	for j := range m.cuts {
		for _, v := range m.cuts[j].variants {
			for _, pv := range v.key {
				pv.refs++
			}
		}
	}
	for j, vs := range m.versions {
		kept := vs[:0]
		for _, v := range vs {
			if v.refs > 0 {
				kept = append(kept, v)
			} else {
				m.spare[j] = append(m.spare[j], v)
			}
		}
		clear(vs[len(kept):])
		m.versions[j] = kept
	}
}

// matchLive sets live to the version of each snapshotted layer's current
// parameters, snapshotting a new version where none matches, and stamps
// them with this pass.
func (m *prefixMemo) matchLive() {
	for j := range m.live {
		ps := m.cuts[j].params
		var match *paramVersion
		for _, v := range m.versions[j] {
			if equalBits(ps, v.data) {
				match = v
				break
			}
		}
		if match == nil {
			if n := len(m.spare[j]); n > 0 {
				match = m.spare[j][n-1]
				m.spare[j] = m.spare[j][:n-1]
			} else {
				match = &paramVersion{}
			}
			match.data = snapshot(ps, match.data)
			m.versions[j] = append(m.versions[j], match)
		}
		match.live = m.clock
		m.live[j] = match
	}
}

// find returns the variant of c keyed by key, or nil.
func (c *memoCut) find(key []*paramVersion) *memoVariant {
	for _, v := range c.variants {
		if slices.Equal(v.key, key) {
			return v
		}
	}
	return nil
}

// slot returns a variant of cut j keyed by the live prefix, with room
// for n inputs, evicting one when the cut is full.
func (m *prefixMemo) slot(j, n int) *memoVariant {
	c := &m.cuts[j]
	var v *memoVariant
	switch {
	case len(c.variants) == capacity(j):
		v = c.variants[0]
		for _, u := range c.variants[1:] {
			if staleness(u) < staleness(v) {
				v = u
			}
		}
	case len(c.spare) > 0:
		v = c.spare[len(c.spare)-1]
		c.spare = c.spare[:len(c.spare)-1]
		c.variants = append(c.variants, v)
	default:
		v = &memoVariant{}
		c.variants = append(c.variants, v)
	}
	v.key = append(v.key[:0], m.live[:j]...)
	for len(v.acts) < n {
		v.acts = append(v.acts, make([]*tensor.Tensor, len(c.front)))
	}
	v.acts = v.acts[:n]
	return v
}

// staleness is the oldest live stamp among the versions of v's key: one
// of them has not been live since that pass.
func staleness(v *memoVariant) uint64 {
	s := uint64(math.MaxUint64)
	for _, pv := range v.key {
		s = min(s, pv.live)
	}
	return s
}

// dropAll moves every stored variant to its cut's spare list.
func (m *prefixMemo) dropAll() {
	for j := range m.cuts {
		c := &m.cuts[j]
		c.spare = append(c.spare, c.variants...)
		clear(c.variants)
		c.variants = c.variants[:0]
	}
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
	m.dropAll()
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
// (so NaN payloads and signed zeros count). A float32 is exactly its four
// bytes in memory, so the slices hold the same bit patterns exactly when
// their bytes are equal, which bytes.Equal tests with the runtime's
// vectorized memequal.
func equalData(a, b []float32) bool {
	return bytes.Equal(float32Bytes(a), float32Bytes(b))
}

// float32Bytes views the storage of s as 4·len(s) bytes, without copying.
func float32Bytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
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
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
