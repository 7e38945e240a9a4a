package tensor

import (
	"math/rand"
	"testing"
)

func benchMats(seed int64, m, k, n int) (a, bm *Tensor) {
	rng := rand.New(rand.NewSource(seed))
	a = MustNew(m, k)
	a.RandNormal(rng, 0, 1)
	bm = MustNew(k, n)
	bm.RandNormal(rng, 0, 1)
	return a, bm
}

// BenchmarkMatMul256 allocates its destination every iteration, the
// cold-buffer counterpart of BenchmarkMatMulInto256.
func BenchmarkMatMul256(b *testing.B) {
	a, c := benchMats(1, 256, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(MustNew(256, 256), a, c); err != nil {
			b.Fatal(err)
		}
	}
	// 2 flops per MAC.
	b.SetBytes(int64(256 * 256 * 256 * 2))
}

// BenchmarkMatMulInto256 is the steady-state blocked kernel: the
// destination is caller-owned and reused, so the loop is allocation-free.
func BenchmarkMatMulInto256(b *testing.B) {
	a, c := benchMats(1, 256, 256, 256)
	dst := MustNew(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(256 * 256 * 256 * 2))
}

// BenchmarkMatMulIntoVGGShape is the im2col product of a VGG-style
// 3x3x64->128 convolution on a 28x28 map: [784 x 576] x [576 x 128].
func BenchmarkMatMulIntoVGGShape(b *testing.B) {
	a, c := benchMats(2, 784, 576, 128)
	dst := MustNew(784, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(784 * 576 * 128 * 2))
}

// BenchmarkMatMulIntoLeNetShape is LeNet-5's largest conv product as
// the channel-major lowering runs it: W^T [16 x 150] x patches^T
// [150 x 100] (conv_2 on the 14x14x6 map).
func BenchmarkMatMulIntoLeNetShape(b *testing.B) {
	a, c := benchMats(3, 16, 150, 100)
	dst := MustNew(16, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(16 * 150 * 100 * 2))
}

// BenchmarkIm2ColInto lowers into a reused caller-owned scratch buffer.
func BenchmarkIm2ColInto(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := MustNew(56, 56, 64)
	x.RandNormal(rng, 0, 1)
	dst := make([]float32, 56*56*3*3*64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Im2ColInto(dst, x, 3, 3, 1, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIm2ColT is the channel-major lowering at LeNet-5's two conv
// shapes: conv_1 (28x28x1, 5x5) is padded by 2 on every side, conv_2
// (14x14x6, 5x5) has six channels and no padding.
func BenchmarkIm2ColT(b *testing.B) {
	shapes := []struct {
		name       string
		h, w, c, k int
		pad        int
	}{
		{"lenet-conv1", 28, 28, 1, 5, 2},
		{"lenet-conv2", 14, 14, 6, 5, 0},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			x := MustNew(sh.h, sh.w, sh.c)
			x.RandNormal(rand.New(rand.NewSource(4)), 0, 1)
			oh, ow := ConvOutDim(sh.h, sh.k, 1, sh.pad), ConvOutDim(sh.w, sh.k, 1, sh.pad)
			dst := make([]float32, oh*ow*sh.k*sh.k*sh.c)
			planes := make([]float32, (sh.h+2*sh.pad)*(sh.w+2*sh.pad)*sh.c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Im2ColTInto(dst, planes, x, sh.k, sh.k, 1, sh.pad, sh.pad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
