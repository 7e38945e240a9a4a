// Package train provides the SGD training substrate used to train the
// small networks (LeNet-5) for real on the synthetic digit dataset, plus
// the evaluation metrics shared by every accuracy experiment: top-1/top-k
// accuracy and the top-5 fidelity metric used for the large models.
package train

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and global
// gradient-norm clipping (a stabilizer for the high-momentum, small-batch
// regime the digit task uses).
type SGD struct {
	LR       float64
	Momentum float64
	// ClipNorm caps the global L2 norm of each step's scaled gradient
	// (0 disables clipping). NewSGD defaults it to 5.
	ClipNorm float64
	vel      map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD creates an optimizer. lr must be positive; momentum in [0, 1).
func NewSGD(lr, momentum float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("train: non-positive learning rate %v", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("train: momentum %v out of [0,1)", momentum)
	}
	return &SGD{LR: lr, Momentum: momentum, ClipNorm: 5, vel: make(map[*tensor.Tensor]*tensor.Tensor)}, nil
}

// Step applies one update: p -= lr * (momentum-filtered grad). scale
// divides the accumulated gradient (1/batchSize). If ClipNorm is set and
// the scaled gradient's global L2 norm exceeds it, the gradient is
// rescaled to the cap before the momentum update.
func (o *SGD) Step(params, grads []nn.Param, scale float64) error {
	if len(params) != len(grads) {
		return errors.New("train: params/grads length mismatch")
	}
	if o.ClipNorm > 0 {
		var sq float64
		for i := range grads {
			for _, g := range grads[i].T.Data {
				v := float64(g) * scale
				sq += float64(v * v)
			}
		}
		if norm := math.Sqrt(sq); norm > o.ClipNorm {
			scale *= o.ClipNorm / norm
		}
	}
	for i := range params {
		p, g := params[i].T, grads[i].T
		if p.Size() != g.Size() {
			return fmt.Errorf("train: param %q size mismatch", params[i].Name)
		}
		v, ok := o.vel[p]
		if !ok {
			v = tensor.MustNew(p.Shape()...)
			o.vel[p] = v
		}
		// Every product is converted on its own, so no compiler fuses it
		// into the add (the nn package's bit-identity rule).
		mom, sc, lr := float32(o.Momentum), float32(scale), float32(o.LR)
		pd := p.Data
		vd, gd := v.Data[:len(pd)], g.Data[:len(pd)]
		for j, pj := range pd {
			vj := float32(mom*vd[j]) + float32(sc*gd[j])
			vd[j] = vj
			pd[j] = pj - float32(lr*vj)
		}
	}
	return nil
}

// Trainer trains a sequential graph whose final layer is Softmax with
// cross-entropy loss. Every other layer must implement nn.Backprop.
type Trainer struct {
	Net       *nn.Graph
	Opt       *SGD
	BatchSize int
	// LRDecay multiplies the learning rate after each epoch of Fit
	// (0 means no decay).
	LRDecay float64

	run *epochState // derived from Net by the first epoch
}

// epochState is what TrainEpoch derives from the graph once and every
// epoch reuses, so a warm epoch allocates nothing per sample and little
// per call.
type epochState struct {
	net    *nn.Graph
	names  []string
	layers []nn.Backprop // every layer but the final softmax
	// params and grads are the Params and Grads of the layers that
	// have parameters.
	params, grads [][]nn.Param
	// back is the backward pass's arena: the loss gradient, every
	// layer's dx and the conv layers' work buffers. It lives apart from
	// the forward Runners' arenas, so inference Runners do not grow.
	back *nn.Scratch
	// prep holds every layer's W^T and finiteness for the current
	// weights, and max pooling's recorded argmax. TrainEpoch updates it
	// before its first sample and after every optimizer step, and
	// installs it on the forward Runner and back only while it runs.
	prep *nn.Prep
}

// newEpochState derives the epoch state of g, which NewTrainer
// validated.
func newEpochState(g *nn.Graph) *epochState {
	st := &epochState{net: g, names: g.LayerNames(), back: nn.NewScratch(), prep: g.NewPrep()}
	st.layers = make([]nn.Backprop, len(st.names)-1)
	for i, name := range st.names[:len(st.names)-1] {
		st.layers[i] = g.Layer(name).(nn.Backprop)
		if p := st.layers[i].Params(); len(p) > 0 {
			st.params, st.grads = append(st.params, p), append(st.grads, st.layers[i].Grads())
		}
	}
	return st
}

// NewTrainer validates that the graph is linear, softmax-terminated, and
// fully backpropagatable.
func NewTrainer(g *nn.Graph, opt *SGD, batchSize int) (*Trainer, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("train: non-positive batch size %d", batchSize)
	}
	names := g.LayerNames()
	if len(names) < 2 {
		return nil, errors.New("train: graph too small to train")
	}
	for i, name := range names {
		in := g.Inputs(name)
		if len(in) != 1 {
			return nil, fmt.Errorf("train: layer %q is not sequential", name)
		}
		want := nn.InputName
		if i > 0 {
			want = names[i-1]
		}
		if in[0] != want {
			return nil, fmt.Errorf("train: layer %q input %q breaks the chain", name, in[0])
		}
		if i == len(names)-1 {
			if _, ok := g.Layer(name).(*nn.Softmax); !ok {
				return nil, fmt.Errorf("train: final layer %q must be softmax", name)
			}
		} else if _, ok := g.Layer(name).(nn.Backprop); !ok {
			return nil, fmt.Errorf("train: layer %q does not support backprop", name)
		}
	}
	return &Trainer{Net: g, Opt: opt, BatchSize: batchSize}, nil
}

// TrainEpoch runs one pass over the samples, updating parameters every
// BatchSize samples, and returns the mean cross-entropy loss.
func (t *Trainer) TrainEpoch(samples []dataset.Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, errors.New("train: no samples")
	}
	if t.run == nil || t.run.net != t.Net {
		t.run = newEpochState(t.Net)
	}
	st := t.run
	names, layers, out := st.names, st.layers, st.names[len(st.names)-1]
	st.prep.Update()
	st.back.Use(st.prep)
	defer st.back.Use(nil)
	zeroAll := func() {
		for _, l := range layers {
			l.ZeroGrads()
		}
	}
	applyStep := func(n int) error {
		for i := range st.params {
			if err := t.Opt.Step(st.params[i], st.grads[i], 1/float64(n)); err != nil {
				return err
			}
		}
		st.prep.Update()
		return nil
	}
	var totalLoss float64
	inBatch := 0
	zeroAll()
	// One reused Runner per epoch: each sample's activations are
	// overwritten by the next forward, which is safe because Backward
	// only reads them and the loss gradient is a copy of the softmax
	// output.
	r := t.Net.AcquireRunner()
	defer r.Release()
	r.Use(st.prep)
	for _, s := range samples {
		acts, err := r.ForwardAll(s.Image)
		if err != nil {
			return 0, err
		}
		probs := acts[out]
		if s.Label < 0 || s.Label >= probs.Size() {
			return 0, fmt.Errorf("train: label %d out of range for %d-way output", s.Label, probs.Size())
		}
		p := float64(probs.Data[s.Label])
		if p < 1e-12 {
			p = 1e-12
		}
		totalLoss += -math.Log(p)
		// Softmax + cross-entropy gradient: dy = p - onehot, injected at
		// the input of the softmax layer.
		dy := st.back.TensorLike(out, "/dy", probs)
		copy(dy.Data, probs.Data)
		dy.Data[s.Label] -= 1
		// Backpropagate through the remaining layers in reverse. Nothing
		// reads the gradient of the network input, so the first layer
		// computes none.
		for i := len(layers) - 1; i >= 0; i-- {
			inName := nn.InputName
			if i > 0 {
				inName = names[i-1]
			}
			dy, err = layers[i].Backward(acts[inName], dy, st.back, i > 0)
			if err != nil {
				return 0, err
			}
		}
		inBatch++
		if inBatch == t.BatchSize {
			if err := applyStep(inBatch); err != nil {
				return 0, err
			}
			zeroAll()
			inBatch = 0
		}
	}
	if inBatch > 0 {
		if err := applyStep(inBatch); err != nil {
			return 0, err
		}
		zeroAll()
	}
	return totalLoss / float64(len(samples)), nil
}

// Fit trains for the given number of epochs, returning the loss history.
func (t *Trainer) Fit(samples []dataset.Sample, epochs int) ([]float64, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("train: non-positive epoch count %d", epochs)
	}
	losses := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		l, err := t.TrainEpoch(samples)
		if err != nil {
			return losses, err
		}
		losses = append(losses, l)
		if t.LRDecay > 0 && t.LRDecay < 1 {
			t.Opt.LR *= t.LRDecay
		}
	}
	return losses, nil
}
