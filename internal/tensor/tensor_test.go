package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x, err := New(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rank() != 3 || x.Size() != 24 || x.Dim(1) != 3 {
		t.Errorf("rank=%d size=%d dim1=%d", x.Rank(), x.Size(), x.Dim(1))
	}
	if _, err := New(2, 0); err == nil {
		t.Error("zero dim should error")
	}
	if _, err := New(-1); err == nil {
		t.Error("negative dim should error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad shape should panic")
		}
	}()
	MustNew(0)
}

func TestFromSlice(t *testing.T) {
	x, err := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 2) != 6 || x.At(0, 0) != 1 {
		t.Errorf("At values wrong: %v %v", x.At(1, 2), x.At(0, 0))
	}
	if _, err := FromSlice([]float32{1, 2}, 3); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestAtSetRowMajor(t *testing.T) {
	x := MustNew(2, 3)
	x.Set(7, 1, 0)
	if x.Data[3] != 7 {
		t.Errorf("row-major layout broken: %v", x.Data)
	}
	if x.At(1, 0) != 7 {
		t.Error("At after Set mismatch")
	}
}

func TestAtPanics(t *testing.T) {
	x := MustNew(2, 2)
	for _, idx := range [][]int{{0}, {2, 0}, {0, -1}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) should panic", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestCloneIndependent(t *testing.T) {
	x := MustNew(4)
	x.Fill(1)
	y := x.Clone()
	y.Set(9, 2)
	if x.At(2) != 1 {
		t.Error("Clone should not share data")
	}
}

func TestFillZeroScale(t *testing.T) {
	x := MustNew(3)
	x.Fill(2)
	x.Scale(1.5)
	if x.At(1) != 3 {
		t.Errorf("Scale result %v", x.At(1))
	}
	x.Zero()
	if x.At(0) != 0 {
		t.Error("Zero failed")
	}
}

func TestRandInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := MustNew(10000)
	x.RandNormal(rng, 0, 0.1)
	var mean, varsum float64
	for _, v := range x.Data {
		mean += float64(v)
	}
	mean /= float64(x.Size())
	for _, v := range x.Data {
		d := float64(v) - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / float64(x.Size()))
	if math.Abs(mean) > 0.01 || math.Abs(std-0.1) > 0.01 {
		t.Errorf("RandNormal mean=%v std=%v", mean, std)
	}
	x.RandUniform(rng, -1, 1)
	for _, v := range x.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("RandUniform out of range: %v", v)
		}
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	x := MustNew(5)
	rng := rand.New(rand.NewSource(2))
	x.RandNormal(rng, 0, 1)
	vals := x.Float64s()
	y := MustNew(5)
	if err := y.SetFloat64s(vals); err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Errorf("round trip mismatch at %d", i)
		}
	}
	if err := y.SetFloat64s(vals[:2]); err == nil {
		t.Error("length mismatch should error")
	}
}

// TestFloat64sChunked: widening in chunks on several goroutines writes
// every element exactly once, signed zeros and NaNs included.
func TestFloat64sChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 64, 65, 200} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		if n > 2 {
			src[0], src[n/2] = float32(math.Copysign(0, -1)), float32(math.NaN())
		}
		for _, grain := range []int{1, 8, 64} {
			for _, width := range []int{1, 2, 3, 8} {
				got := float64s(src, grain, width)
				if len(got) != n {
					t.Fatalf("n=%d grain=%d width=%d: length %d", n, grain, width, len(got))
				}
				for i, v := range src {
					if math.Float64bits(got[i]) != math.Float64bits(float64(v)) {
						t.Fatalf("n=%d grain=%d width=%d: element %d = %v, want %v", n, grain, width, i, got[i], v)
					}
				}
			}
		}
	}
}

// TestFloat64sSmallAllocs: below one chunk the copy is the only
// allocation, as for the logits the accuracy evaluation widens.
func TestFloat64sSmallAllocs(t *testing.T) {
	x := MustNew(10)
	if n := testing.AllocsPerRun(50, func() { _ = x.Float64s() }); n != 1 {
		t.Errorf("Float64s of 10 elements made %v allocations, want 1", n)
	}
}

func TestAdd(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2}, 2)
	b, _ := FromSlice([]float32{10, 20}, 2)
	c, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0) != 11 || c.At(1) != 22 {
		t.Errorf("Add = %v", c.Data)
	}
	if a.At(0) != 1 {
		t.Error("Add mutated operand")
	}
	bad := MustNew(3)
	if _, err := Add(a, bad); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestSameShape(t *testing.T) {
	if !SameShape(MustNew(2, 3), MustNew(2, 3)) {
		t.Error("equal shapes reported different")
	}
	if SameShape(MustNew(2, 3), MustNew(3, 2)) {
		t.Error("different shapes reported same")
	}
	if SameShape(MustNew(6), MustNew(2, 3)) {
		t.Error("different ranks reported same")
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MustNew(2, 2)
	if err := MatMulInto(c, a, b); err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("MatMulInto[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
	if err := MatMulInto(c, a, a); err == nil {
		t.Error("inner mismatch should error")
	}
	if err := MatMulInto(c, MustNew(2), b); err == nil {
		t.Error("rank mismatch should error")
	}
}

func TestMatMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := MustNew(n, n)
		a.RandNormal(rng, 0, 1)
		eye := MustNew(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		c := MustNew(n, n)
		if err := MatMulInto(c, a, eye); err != nil {
			return false
		}
		for i := range a.Data {
			if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// lower runs Im2ColInto with symmetric padding into a fresh
// [outH*outW, kh*kw*C] matrix and checks it against refIm2Col.
func lower(t *testing.T, x *Tensor, kh, kw, stride, pad int) (*Tensor, int, int, error) {
	t.Helper()
	want, oh, ow := refIm2Col(x, kh, kw, stride, pad, pad)
	cols := MustNew(want.Shape()...)
	gotH, gotW, err := Im2ColInto(cols.Data, x, kh, kw, stride, pad, pad)
	if err != nil {
		return nil, 0, 0, err
	}
	if gotH != oh || gotW != ow {
		t.Fatalf("Im2ColInto out %dx%d, refIm2Col %dx%d", gotH, gotW, oh, ow)
	}
	assertBitIdentical(t, cols, want, "Im2ColInto")
	return cols, oh, ow, nil
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: rows are exactly the input pixels.
	x, _ := FromSlice([]float32{1, 2, 3, 4}, 2, 2, 1)
	cols, oh, ow, err := lower(t, x, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims %dx%d", oh, ow)
	}
	for i, v := range []float32{1, 2, 3, 4} {
		if cols.Data[i] != v {
			t.Errorf("cols[%d] = %v", i, cols.Data[i])
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x, _ := FromSlice([]float32{5}, 1, 1, 1)
	cols, oh, ow, err := lower(t, x, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if oh != 1 || ow != 1 {
		t.Fatalf("out dims %dx%d", oh, ow)
	}
	// Center tap is the value, everything else padding zeros.
	for i, v := range cols.Data {
		want := float32(0)
		if i == 4 {
			want = 5
		}
		if v != want {
			t.Errorf("cols[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestIm2ColStride(t *testing.T) {
	x := MustNew(4, 4, 1)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	cols, oh, ow, err := lower(t, x, 2, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims %dx%d", oh, ow)
	}
	// First window covers pixels 0,1,4,5.
	want := []float32{0, 1, 4, 5}
	for i, v := range want {
		if cols.Data[i] != v {
			t.Errorf("window0[%d] = %v, want %v", i, cols.Data[i], v)
		}
	}
}

func TestIm2ColErrors(t *testing.T) {
	// A buffer large enough for any valid geometry here, so only the
	// geometry checks can reject these.
	dst := make([]float32, 1024)
	x := MustNew(2, 2)
	if _, _, err := Im2ColInto(dst, x, 1, 1, 1, 0, 0); err == nil {
		t.Error("rank-2 input should error")
	}
	x3 := MustNew(2, 2, 1)
	if _, _, err := Im2ColInto(dst, x3, 1, 1, 0, 0, 0); err == nil {
		t.Error("zero stride should error")
	}
	if _, _, err := Im2ColInto(dst, x3, 5, 5, 1, 0, 0); err == nil {
		t.Error("kernel larger than input without pad should error")
	}
	if _, _, err := Im2ColInto(dst, x3, 1, 1, 1, -1, -1); err == nil {
		t.Error("negative pad should error")
	}
}

func TestConvOutDim(t *testing.T) {
	if got := ConvOutDim(28, 5, 1, 0); got != 24 {
		t.Errorf("ConvOutDim = %d, want 24", got)
	}
	if got := ConvOutDim(224, 3, 2, 1); got != 112 {
		t.Errorf("ConvOutDim = %d, want 112", got)
	}
}

func TestAllFinite(t *testing.T) {
	x := MustNew(3)
	if !x.AllFinite() {
		t.Error("zeros should be finite")
	}
	x.Data[1] = float32(math.NaN())
	if x.AllFinite() {
		t.Error("NaN should be detected")
	}
	x.Data[1] = float32(math.Inf(1))
	if x.AllFinite() {
		t.Error("Inf should be detected")
	}
}

func TestString(t *testing.T) {
	if s := MustNew(2, 2).String(); s == "" {
		t.Error("empty String()")
	}
}
