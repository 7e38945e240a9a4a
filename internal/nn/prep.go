package nn

import (
	"unsafe"

	"repro/internal/tensor"
)

// Prep holds what layers derive from their weights, for one version of
// them, and what a training forward records for its backward. Layers
// read it through the Scratch a Prep is installed on (Scratch.Use,
// Runner.Use); without one they derive the same data on every call, so
// a Prep changes how often the work is done, never a result.
//
// Two users keep one: a memo pass prepares its graph's convolutions once
// per accuracy call (Graph.BeginMemo), and a training loop prepares
// every Conv2D and Dense once per optimizer step (Graph.NewPrep). A Prep
// is read-only while Forwards run on several goroutines; Update writes
// it, and a training forward's argmax record is written by the one
// goroutine that trains.
type Prep struct {
	weights []weightPrep
	argmax  []poolArgmax
}

// weightPrep is what a layer derives from its [rows, cols] weight
// matrix w: whether w holds no Inf or NaN, and w^T, [cols, rows].
type weightPrep struct {
	w      *tensor.Tensor
	finite bool
	wt     []float32
}

// poolArgmax is the record of max-pooling layer p's last recorded
// forward: for each output element of the forward on x, the index into
// x.Data of its winning tap, or -1 when no tap beat −Inf.
type poolArgmax struct {
	p    *Pool2D
	x    *tensor.Tensor
	data *float32 // x.Data's storage when recorded
	idx  []int32
}

// NewPrep returns a training Prep for g, for every Conv2D's and Dense's
// weights and with an argmax record for every max Pool2D. Update it
// before its first use and after every change of the weights.
func (g *Graph) NewPrep() *Prep {
	p := &Prep{}
	for _, name := range g.order {
		switch l := g.nodes[name].layer.(type) {
		case *Conv2D:
			p.weights = append(p.weights, weightPrep{w: l.W})
		case *Dense:
			p.weights = append(p.weights, weightPrep{w: l.W})
		case *Pool2D:
			if l.kind == poolMax {
				p.argmax = append(p.argmax, poolArgmax{p: l})
			}
		}
	}
	return p
}

// Update derives every prepared layer's data from its current weights
// and forgets every argmax record.
func (p *Prep) Update() {
	for i := range p.weights {
		p.weights[i].derive()
	}
	for i := range p.argmax {
		p.argmax[i].x = nil
	}
}

// of returns p's preparation of w, or nil.
func (p *Prep) of(w *tensor.Tensor) *weightPrep {
	for i := range p.weights {
		if p.weights[i].w == w {
			return &p.weights[i]
		}
	}
	return nil
}

// derive fills p from its weights' current values.
func (p *weightPrep) derive() {
	rows, cols := p.w.Dim(0), p.w.Dim(1)
	p.finite = p.w.AllFinite()
	p.wt = resize(p.wt, rows*cols)
	transpose(p.wt, p.w.Data, rows, cols)
}

// transpose writes the [cols, rows] transpose of the row-major
// [rows, cols] matrix a into dst.
func transpose(dst, a []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range a[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// Use makes the layers read p's preparations, and record into it, in
// every forward and backward through s, until the next Use; Use(nil)
// returns s to deriving per call. p must be current: updated after
// every change of the weights it prepares.
func (s *Scratch) Use(p *Prep) { s.prep = p }

// Use is Scratch.Use for r's arena, until Release or the next Use.
func (r *Runner) Use(p *Prep) { r.s.Use(p) }

// prepared returns s's preparation of the weights w, or nil.
func (s *Scratch) prepared(w *tensor.Tensor) *weightPrep {
	if s.prep == nil {
		return nil
	}
	return s.prep.of(w)
}

// finiteW reports whether w holds no Inf or NaN, reading s's
// preparation when it has one.
func finiteW(s *Scratch, w *tensor.Tensor) bool {
	if p := s.prepared(w); p != nil {
		return p.finite
	}
	return w.AllFinite()
}

// transposedW returns w^T, from s's preparation when it has one, else
// transposed into s's shared "W^T" buffer, valid until the next call.
func transposedW(s *Scratch, w *tensor.Tensor) []float32 {
	if p := s.prepared(w); p != nil {
		return p.wt
	}
	rows, cols := w.Dim(0), w.Dim(1)
	wt := s.Floats("W^T", "", rows*cols)
	transpose(wt, w.Data, rows, cols)
	return wt
}

// argmaxOf returns s's argmax record of the max-pooling layer p, or nil.
func (s *Scratch) argmaxOf(p *Pool2D) *poolArgmax {
	if s.prep == nil {
		return nil
	}
	for i := range s.prep.argmax {
		if s.prep.argmax[i].p == p {
			return &s.prep.argmax[i]
		}
	}
	return nil
}

// recorder returns the argmax record p's forward on x fills through s,
// sized for n outputs, or nil when s records none.
func (s *Scratch) recorder(p *Pool2D, x *tensor.Tensor, n int) []int32 {
	a := s.argmaxOf(p)
	if a == nil {
		return nil
	}
	a.x, a.data = x, unsafe.SliceData(x.Data)
	a.idx = resize(a.idx, n)
	return a.idx
}

// recorded returns the argmax record of p's last recorded forward when
// that forward read x, or nil.
func (s *Scratch) recorded(p *Pool2D, x *tensor.Tensor) []int32 {
	a := s.argmaxOf(p)
	if a == nil || a.x != x || a.data != unsafe.SliceData(x.Data) {
		return nil
	}
	return a.idx
}

// accumulateRows adds coef[j]·wt[j] to acc for ascending j in float64,
// where wt's row j is wt[j*len(acc):][:len(acc)]: each element gets its
// terms in ascending j, each product rounded on its own. With finite wt
// a zero coefficient's row adds ±0, which leaves a sum that started at
// +0 unchanged (such a sum is never −0), so the row is skipped, and the
// last one to three live rows go through tensor.Daxpy4 padded with zero
// coefficients. Non-finite wt adds every row and takes the tail one row
// at a time, as 0·Inf is NaN. It returns the number of rows added.
func accumulateRows(acc []float64, coef, wt []float32, finite bool) int {
	n := len(acc)
	var (
		x        [4]float64
		rows     [4][]float32
		m, terms int
	)
	for j, cv := range coef {
		if cv == 0 && finite {
			continue
		}
		terms++
		x[m], rows[m] = float64(cv), wt[j*n:(j+1)*n]
		if m++; m == 4 {
			tensor.Daxpy4(acc, &x, &rows)
			m = 0
		}
	}
	switch {
	case m > 0 && finite:
		for ; m < 4; m++ {
			x[m], rows[m] = 0, rows[0]
		}
		tensor.Daxpy4(acc, &x, &rows)
	default:
		for k := range m {
			row := rows[k][:n]
			for i := range acc {
				acc[i] += float64(x[k] * float64(row[i]))
			}
		}
	}
	return terms
}
