package core

import (
	"math"
	"reflect"
	"testing"
)

// FuzzUnmarshal hammers the codec with arbitrary bytes: it must never
// panic, and anything it accepts must round-trip.
func FuzzUnmarshal(f *testing.F) {
	c, err := Compress([]float64{1, 2, 3, 2, 1, 0.5}, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c.Marshal())
	v1 := c.Marshal() // the unsupported version-1 header
	v1[4], v1[5] = 1, 0
	f.Add(v1)
	f.Add([]byte{})
	f.Add([]byte("NCWC"))
	f.Add([]byte("NCWCxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	// Single-byte corruptions of a valid v2 stream seed the checksum paths.
	for _, off := range []int{5, 8, 16, 20, 24, 28, 34, 38} {
		mut := c.Marshal()
		if off < len(mut) {
			mut[off] ^= 0x40
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return // rejected, fine
		}
		// Accepted streams must be internally consistent and re-encodable.
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted stream fails Validate: %v", err)
		}
		total := 0
		for _, s := range got.Segments {
			if s.Len <= 0 {
				t.Fatalf("accepted non-positive segment length %d", s.Len)
			}
			total += s.Len
		}
		if total != got.N {
			t.Fatalf("accepted inconsistent stream: %d != %d", total, got.N)
		}
		re, err := Unmarshal(got.Marshal())
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if re.N != got.N || len(re.Segments) != len(got.Segments) {
			t.Fatal("re-encode changed the stream")
		}
	})
}

// FuzzCompressDecompress checks the core pipeline on arbitrary inputs:
// no panics, segments bit-identical to the reference scan and fit and,
// in chunks of a fuzzed multiple of 64 weights on a fuzzed number of
// goroutines, to the single-chunk result; exact output length, finite
// outputs for finite inputs.
func FuzzCompressDecompress(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, float64(5), uint8(0), uint8(1))
	f.Add([]byte{0}, float64(0), uint8(0), uint8(0))
	saw := make([]byte, 130) // crosses two bitmap words
	for i := range saw {
		saw[i] = byte(i%2*40 + i%9)
	}
	f.Add(saw, float64(0), uint8(0), uint8(2))
	f.Add(saw, float64(30), uint8(1), uint8(7))
	ramp := make([]byte, 300) // one run across chunks, then alternation
	for i := range ramp {
		ramp[i] = byte(min(i, 200) + i%2*50*(i/200))
	}
	f.Add(ramp, float64(2), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, deltaPct float64, grainSel, widthSel uint8) {
		if len(raw) == 0 {
			return
		}
		if math.IsNaN(deltaPct) || math.IsInf(deltaPct, 0) || deltaPct < 0 || deltaPct > 1000 {
			return
		}
		w := make([]float64, len(raw))
		for i, b := range raw {
			w[i] = (float64(b) - 128) / 64
		}
		c, err := CompressPct(w, deltaPct)
		if err != nil {
			t.Fatalf("finite input rejected: %v", err)
		}
		if i := sameSegments(c.Segments, refCompress(t, w, c.Delta)); i >= 0 {
			t.Fatalf("segment %d differs from the reference", i)
		}
		grain, width := (int(grainSel)%4+1)*64, int(widthSel)%8+1
		chunked, err := compress(w, c.Delta, grain, width)
		if err != nil {
			t.Fatalf("grain=%d width=%d: %v", grain, width, err)
		}
		if !reflect.DeepEqual(chunked, c) {
			t.Fatalf("grain=%d width=%d: segment %d differs from the single chunk", grain, width, sameSegments(chunked.Segments, c.Segments))
		}
		out, err := c.Decompress()
		if err != nil {
			t.Fatalf("compressed output failed validation: %v", err)
		}
		if len(out) != len(w) {
			t.Fatalf("length %d != %d", len(out), len(w))
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite output at %d: %v", i, v)
			}
		}
	})
}
