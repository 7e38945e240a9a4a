package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// fitGolden is the SHA-256 of a LeNet-5 training run's loss history and
// final weights (see TestFitGolden). It moves only if training arithmetic
// changes; a refactor of the forward or backward path must keep it.
const fitGolden = "b999d5a5bafa8680839e825875e5f203836690cc274d236d0e2784c7ae98a654"

// forwardGolden is the SHA-256 of inference activations (see
// TestForwardGolden). It moves only if forward arithmetic changes; a
// change of conv lowering, matmul kernel or arena layout must keep it.
const forwardGolden = "f25a204108d0ec8303c284185d0818d221c59f46506a28a2869f9d2ee38cf0f7"

// TestFitGolden pins Fit bit-for-bit under every matmul kernel.
func TestFitGolden(t *testing.T) { forEachMatMulKernel(t, checkFitGolden) }

// checkFitGolden trains LeNet-5 for 3 epochs on a fixed digit set and
// hashes the little-endian float64 bits of each epoch loss and then of
// every parameter (nn.WeightStream of each layer, in Graph.Layers order).
func checkFitGolden(t *testing.T) {
	m, err := models.LeNet5(7)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.Digits(450, 7)
	if err != nil {
		t.Fatal(err)
	}
	trainSet, _, err := dataset.Split(samples, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.05, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m.Graph, opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := tr.Fit(trainSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, l := range losses {
		put(l)
	}
	for _, l := range m.Graph.Layers() {
		for _, v := range nn.WeightStream(l) {
			put(v)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fitGolden {
		t.Fatalf("Fit digest = %s, want %s (losses %v)", got, fitGolden, losses)
	}
}

// TestForwardGolden pins inference bit-for-bit under every matmul
// kernel, which every accuracy in results/*.csv depends on.
func TestForwardGolden(t *testing.T) { forEachMatMulKernel(t, checkForwardGolden) }

// checkForwardGolden hashes the little-endian float32 bits of
// every LeNet-5 activation (logits and softmax included, in execution
// order) over a fixed digit set, then the same for a small conv graph
// run with one +Inf weight and then one NaN input pixel, the operands
// FaultSweep's bit flips produce. NaNs hash as one canonical pattern:
// their payload and sign are not portable across CPUs.
func checkForwardGolden(t *testing.T) {
	m, err := models.LeNet5(7)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.Digits(40, 11)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	r := m.Graph.WithScratch()
	for _, s := range samples {
		hashActs(t, h, r, m.Graph, s.Image)
	}

	rng := rng(5)
	c1, err := nn.NewConv2D("c1", 3, 3, 2, 4, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := nn.NewConv2D("c2", 3, 3, 4, 3, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sequential(c1, nn.NewReLU("relu"), c2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(7, 6, 2)
	x.RandNormal(rng, 0, 1)
	for i := 0; i < len(x.Data); i += 5 {
		x.Data[i] = 0
	}
	c1.W.Data[7] = float32(math.Inf(1))
	hashActs(t, h, g.WithScratch(), g, x)
	c1.W.Data[7] = 0.5
	x.Data[13] = float32(math.NaN())
	hashActs(t, h, g.WithScratch(), g, x)

	if got := hex.EncodeToString(h.Sum(nil)); got != forwardGolden {
		t.Fatalf("forward digest = %s, want %s", got, forwardGolden)
	}
}

// hashActs writes the float32 bits of every activation of g on x into h,
// in execution order, with NaNs canonicalized.
func hashActs(t *testing.T, h hash.Hash, r *nn.Runner, g *nn.Graph, x *tensor.Tensor) {
	t.Helper()
	acts, err := r.ForwardAll(x)
	if err != nil {
		t.Fatal(err)
	}
	var buf [4]byte
	for _, name := range g.LayerNames() {
		for _, v := range acts[name].Data {
			bits := math.Float32bits(v)
			if v != v {
				bits = 0x7fc00000
			}
			binary.LittleEndian.PutUint32(buf[:], bits)
			h.Write(buf[:])
		}
	}
}

// forEachMatMulKernel runs fn as one subtest per matmul kernel this CPU
// offers, then restores the startup kernel, so the portable kernel's
// bit-identity is checked on every run, not only where it is the
// automatic choice.
func forEachMatMulKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	startup := tensor.MatMulKernel()
	defer func() {
		if err := tensor.SetMatMulKernel(startup); err != nil {
			t.Fatal(err)
		}
	}()
	for _, k := range tensor.MatMulKernels() {
		t.Run(k, func(t *testing.T) {
			if err := tensor.SetMatMulKernel(k); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}
