package core

import (
	"math/rand"
	"testing"
)

func benchStream(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.01
	}
	return w
}

func BenchmarkSegmentBounds(b *testing.B) {
	w := benchStream(1_000_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := SegmentBounds(w, 0.002)
		if len(runs) == 0 {
			b.Fatal("no runs")
		}
	}
	b.SetBytes(int64(8 * len(w)))
}

func BenchmarkCompress1M(b *testing.B) {
	w := benchStream(1_000_000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(w, 0.002); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * len(w)))
}

// BenchmarkCompress16M compresses 16 chunks' worth of weights, the
// chunked scan and fit on every core.
func BenchmarkCompress16M(b *testing.B) {
	w := benchStream(16<<20, 6)
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(w)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(w, 0.002); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssess1M(b *testing.B) {
	w := benchStream(1_000_000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Assess(w, 2, len(w), DefaultStorage); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * len(w)))
}

func BenchmarkDecompress1M(b *testing.B) {
	w := benchStream(1_000_000, 3)
	c, err := Compress(w, 0.002)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.Decompress()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(w) {
			b.Fatal("length mismatch")
		}
	}
	b.SetBytes(int64(8 * len(w)))
}

func BenchmarkDecompressionUnit(b *testing.B) {
	w := benchStream(100_000, 4)
	c, err := Compress(w, 0.002)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var u DecompressionUnit
		if _, _, err := u.Run(c); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(w)))
}

func BenchmarkCodecMarshal(b *testing.B) {
	w := benchStream(100_000, 5)
	c, err := Compress(w, 0.002)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := c.Marshal()
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
