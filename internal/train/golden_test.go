package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
)

// fitGolden is the SHA-256 of a LeNet-5 training run's loss history and
// final weights (see TestFitGolden). It moves only if training arithmetic
// changes; a refactor of the forward or backward path must keep it.
const fitGolden = "b999d5a5bafa8680839e825875e5f203836690cc274d236d0e2784c7ae98a654"

// TestFitGolden pins Fit bit-for-bit: LeNet-5 trained for 3 epochs on a
// fixed digit set, hashed over the little-endian float64 bits of each
// epoch loss and then of every parameter (nn.WeightStream of each layer,
// in Graph.Layers order).
func TestFitGolden(t *testing.T) {
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
