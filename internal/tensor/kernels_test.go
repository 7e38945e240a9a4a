package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMul is the naive reference ikj kernel the blocked variants must
// match bit-for-bit: ascending p, one float32 add per term, zero
// a-elements skipped.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := MustNew(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

// randMat fills a matrix with values where roughly a quarter are exact
// zeros, exercising the zero-skip paths of both kernels.
func randMat(rng *rand.Rand, rows, cols int) *Tensor {
	t := MustNew(rows, cols)
	for i := range t.Data {
		if rng.Intn(4) == 0 {
			continue
		}
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func assertBitIdentical(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", label, got.Size(), want.Size())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x", label,
				i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

func TestMatMulIntoTilesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 33}, {64, 64, 64}, {70, 130, 520},
	}
	for _, d := range dims {
		a := randMat(rng, d.m, d.k)
		b := randMat(rng, d.k, d.n)
		want := refMatMul(a, b)
		tiles := []int{1, 3, 8, 17, d.k, d.k + 5, 0 /* defaults */}
		for _, ti := range tiles {
			for _, tk := range tiles {
				dst := MustNew(d.m, d.n)
				// Dirty the destination: MatMulInto must zero it.
				for i := range dst.Data {
					dst.Data[i] = float32(math.NaN())
				}
				if err := MatMulIntoTiles(dst, a, b, ti, tk, tk); err != nil {
					t.Fatalf("MatMulIntoTiles(%dx%dx%d, tiles %d,%d): %v", d.m, d.k, d.n, ti, tk, err)
				}
				assertBitIdentical(t, dst, want, "tiles")
			}
		}
	}
}

func TestMatMulIntoErrors(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(3, 4)
	if err := MatMulInto(MustNew(2, 5), a, b); err == nil {
		t.Fatal("wrong dst shape accepted")
	}
	if err := MatMulInto(MustNew(4, 2), b, a); err == nil {
		t.Fatal("inner dim mismatch accepted")
	}
	sq := MustNew(3, 3)
	if err := MatMulInto(sq, sq, MustNew(3, 3)); err == nil {
		t.Fatal("aliased dst accepted")
	}
}

// refIm2Col is the per-tap reference lowering: row r = oy*outW+ox,
// column (ky*kw+kx)*c+ci, reading each tap on its own through At.
func refIm2Col(x *Tensor, kh, kw, stride, padH, padW int) (*Tensor, int, int) {
	h, w, c := x.Dim(0), x.Dim(1), x.Dim(2)
	outH := ConvOutDim(h, kh, stride, padH)
	outW := ConvOutDim(w, kw, stride, padW)
	k := kh * kw * c
	cols := MustNew(outH*outW, k)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					for ci := 0; ci < c; ci++ {
						iy, ix := oy*stride+ky-padH, ox*stride+kx-padW
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = x.At(iy, ix, ci)
						}
						cols.Data[(oy*outW+ox)*k+(ky*kw+kx)*c+ci] = v
					}
				}
			}
		}
	}
	return cols, outH, outW
}

// TestIm2ColIntoMatchesReference checks Im2ColInto and the transposed
// Im2ColTInto against the per-tap reference, both into dirty buffers
// (Im2ColTInto's planes too).
func TestIm2ColIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct{ h, w, c, kh, kw, stride, padH, padW int }{
		{5, 5, 1, 3, 3, 1, 0, 0},
		{6, 7, 3, 3, 3, 1, 1, 1},
		{9, 9, 2, 5, 5, 2, 2, 2},
		{4, 4, 8, 1, 1, 1, 0, 0},
		{8, 6, 3, 3, 2, 2, 1, 0},
		{28, 28, 1, 5, 5, 1, 2, 2},
		{14, 14, 6, 5, 5, 1, 0, 0},
		{3, 3, 1, 3, 3, 2, 2, 2},
		{2, 3, 2, 1, 1, 1, 1, 1},
		{7, 5, 2, 1, 3, 3, 0, 3},
		{10, 9, 3, 3, 3, 3, 2, 1},
		{5, 5, 4, 5, 5, 2, 4, 4},
		{1, 1, 2, 3, 3, 1, 1, 1},
		{12, 7, 6, 2, 4, 3, 1, 0},
	}
	for _, tc := range cases {
		x := MustNew(tc.h, tc.w, tc.c)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		want, wantOH, wantOW := refIm2Col(x, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		// Dirty scratch: explicit zero-writes must make reuse identical.
		dirty := func() []float32 {
			dst := make([]float32, want.Size())
			for i := range dst {
				dst[i] = float32(math.NaN())
			}
			return dst
		}
		dst := dirty()
		oh, ow, err := Im2ColInto(dst, x, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		if err != nil {
			t.Fatalf("Im2ColInto(%+v): %v", tc, err)
		}
		if oh != wantOH || ow != wantOW {
			t.Fatalf("Im2ColInto(%+v): out %dx%d, want %dx%d", tc, oh, ow, wantOH, wantOW)
		}
		got, err := FromSlice(dst, want.Shape()...)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, want, fmt.Sprintf("Im2ColInto(%+v)", tc))
		dstT, planes := dirty(), make([]float32, (tc.h+2*tc.padH)*(tc.w+2*tc.padW)*tc.c)
		for i := range planes {
			planes[i] = float32(math.NaN())
		}
		if oh, ow, err = Im2ColTInto(dstT, planes, x, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW); err != nil {
			t.Fatalf("Im2ColTInto(%+v): %v", tc, err)
		}
		if oh != wantOH || ow != wantOW {
			t.Fatalf("Im2ColTInto(%+v): out %dx%d, want %dx%d", tc, oh, ow, wantOH, wantOW)
		}
		k, np := want.Dim(1), want.Dim(0)
		for p := 0; p < k; p++ {
			for r := 0; r < np; r++ {
				if got, w := dstT[p*np+r], want.Data[r*k+p]; math.Float32bits(got) != math.Float32bits(w) {
					t.Fatalf("Im2ColTInto(%+v): [%d][%d] = %v, want %v", tc, p, r, got, w)
				}
			}
		}
	}
}

func TestIm2ColIntoErrors(t *testing.T) {
	x := MustNew(5, 5, 2)
	if _, _, err := Im2ColInto(make([]float32, 4), x, 3, 3, 1, 0, 0); err == nil {
		t.Fatal("undersized dst accepted")
	}
	if _, _, err := Im2ColInto(make([]float32, 1024), x, 3, 3, 0, 0, 0); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, _, err := Im2ColInto(make([]float32, 1024), MustNew(5, 5), 3, 3, 1, 0, 0); err == nil {
		t.Fatal("rank-2 input accepted")
	}
	if _, _, err := Im2ColInto(make([]float32, 1024), x, 9, 9, 1, 0, 0); err == nil {
		t.Fatal("collapsing geometry accepted")
	}
	if _, _, err := Im2ColTInto(make([]float32, 4), make([]float32, 1024), x, 3, 3, 1, 0, 0); err == nil {
		t.Fatal("Im2ColTInto: undersized dst accepted")
	}
	if _, _, err := Im2ColTInto(make([]float32, 1024), make([]float32, 7*7*2-1), x, 3, 3, 1, 1, 1); err == nil {
		t.Fatal("Im2ColTInto: undersized planes accepted")
	}
}

// TestShapeDefensiveCopy pins the fix for Shape() returning the internal
// slice: callers mutating the returned shape must not corrupt the tensor.
func TestShapeDefensiveCopy(t *testing.T) {
	x := MustNew(2, 3, 4)
	s := x.Shape()
	s[0], s[1], s[2] = 99, 99, 99
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("mutating Shape() result corrupted dims: %v", x.Shape())
	}
	if got := x.At(1, 2, 3); got != x.Data[len(x.Data)-1] {
		t.Fatalf("indexing broken after Shape() mutation: got %v", got)
	}
	y := MustNew(4)
	if got := y.Shape(); &got[0] == &y.Shape()[0] {
		t.Fatal("Shape() returned a shared backing array")
	}
}
