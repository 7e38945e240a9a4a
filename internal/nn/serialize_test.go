package nn

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

func serTestGraph(t *testing.T, seed int64) *Graph {
	t.Helper()
	c, err := NewConv2D("c1", 3, 3, 1, 4, 1, 1, rng(seed))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense("fc", 4*4*4, 10, rng(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Sequential(c, NewReLU("r"), NewFlatten("f"), d, NewSoftmax("s"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := serTestGraph(t, 1)
	dst := serTestGraph(t, 2) // different weights, same topology
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(&buf, dst); err != nil {
		t.Fatal(err)
	}
	// Every parameter must now match bit-exactly.
	sl, dl := src.Layers(), dst.Layers()
	for i := range sl {
		sp, dp := sl[i].Params(), dl[i].Params()
		for j := range sp {
			for k := range sp[j].T.Data {
				if sp[j].T.Data[k] != dp[j].T.Data[k] {
					t.Fatalf("layer %s param %s elem %d mismatch", sl[i].Name(), sp[j].Name, k)
				}
			}
		}
	}
	// And the loaded network computes identically.
	x := tensor.MustNew(4, 4, 1)
	x.RandNormal(rng(3), 0, 1)
	ys, err := src.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	yd, err := dst.WithScratch().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ys.Data {
		if ys.Data[i] != yd.Data[i] {
			t.Fatalf("forward mismatch at %d", i)
		}
	}
}

func TestLoadWeightsRejectsMismatch(t *testing.T) {
	src := serTestGraph(t, 1)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Different topology: an extra dense layer.
	other := NewGraph()
	d1, _ := NewDense("a", 4, 4, rng(5))
	other.MustAdd(d1)
	if err := LoadWeights(bytes.NewReader(data), other); err == nil {
		t.Error("topology mismatch accepted")
	}

	// Same layer count, different shape.
	g2 := NewGraph()
	c2, _ := NewConv2D("c1", 3, 3, 1, 8, 1, 1, rng(6)) // 8 filters, not 4
	g2.MustAdd(c2)
	d2, _ := NewDense("fc", 8*4*4, 10, rng(7))
	g2.MustAdd(NewFlatten("f"))
	g2.MustAdd(d2)
	if err := LoadWeights(bytes.NewReader(data), g2); err == nil {
		t.Error("shape mismatch accepted")
	}

	// Corrupt magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if err := LoadWeights(bytes.NewReader(bad), serTestGraph(t, 8)); err != ErrBadWeightMagic {
		t.Errorf("bad magic error = %v", err)
	}

	// Truncations must error, not panic.
	for _, cut := range []int{5, 10, 20, len(data) / 2, len(data) - 1} {
		if err := LoadWeights(bytes.NewReader(data[:cut]), serTestGraph(t, 9)); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestSaveLoadEmptyGraphParams(t *testing.T) {
	// A graph with no parameterized layers round-trips trivially.
	g, err := Sequential(NewFlatten("f"), NewSoftmax("s"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(&buf, g); err != nil {
		t.Fatal(err)
	}
}
