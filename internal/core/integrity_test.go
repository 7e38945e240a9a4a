package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// TestCodecReadsVersion1 pins that the unchecksummed version-1 layout is
// no longer read: a stream carrying version 1 fails with ErrBadVersion
// before any checksum is looked at.
func TestCodecReadsVersion1(t *testing.T) {
	c, err := Compress([]float64{1, 2, 3, 2, 1, 0.5, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := c.Marshal()
	binary.LittleEndian.PutUint16(data[len(magic):], 1)
	if _, err := Unmarshal(data); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version-1 stream error = %v, want ErrBadVersion", err)
	}
}

// TestCodecDetectsEveryBitFlip: flipping any single bit anywhere in a
// version-2 stream must make Unmarshal fail — the checksums leave no
// silently accepted corruption.
func TestCodecDetectsEveryBitFlip(t *testing.T) {
	c, err := Compress([]float64{1, 2, 3, 2, 1, 0.5, 4, 8, 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := c.Marshal()
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if _, err := Unmarshal(mut); err == nil {
				t.Fatalf("flip of byte %d bit %d accepted silently", i, bit)
			}
		}
	}
}

// TestCodecChecksumErrorTyped: payload corruption surfaces as
// ErrChecksum specifically.
func TestCodecChecksumErrorTyped(t *testing.T) {
	c, err := Compress([]float64{1, 2, 3, 2, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := c.Marshal()
	// Corrupt the m field of the first segment (offset 26: after magic,
	// 18-byte header and 4-byte header CRC).
	data[26] ^= 0x10
	if _, err := Unmarshal(data); !errors.Is(err, ErrChecksum) {
		t.Errorf("segment corruption error = %v, want ErrChecksum", err)
	}
	data = c.Marshal()
	data[7] ^= 0x01 // parameter count, inside the checksummed header
	if _, err := Unmarshal(data); !errors.Is(err, ErrChecksum) {
		t.Errorf("header corruption error = %v, want ErrChecksum", err)
	}
}

// TestCodecReorderedSegmentsRejected: swapping two intact segment
// records is caught by the index folded into each segment CRC.
func TestCodecReorderedSegmentsRejected(t *testing.T) {
	c := &Compressed{N: 5, Segments: []Segment{{M: 1, Q: 2, Len: 2}, {M: 3, Q: 4, Len: 3}}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	data := c.Marshal()
	const segBytes = segRecordBytes + 4 // record + its CRC
	segs := data[26:]                   // two records
	for i := 0; i < segBytes; i++ {
		segs[i], segs[segBytes+i] = segs[segBytes+i], segs[i]
	}
	if _, err := Unmarshal(data); !errors.Is(err, ErrChecksum) {
		t.Errorf("reordered segments error = %v, want ErrChecksum", err)
	}
}

// TestCodecHugeSegmentCountBounded: a corrupt count field must not make
// the reader allocate gigabytes before noticing the stream is short.
func TestCodecHugeSegmentCountBounded(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	le := binary.LittleEndian
	var head [headerBytes]byte
	le.PutUint16(head[0:2], codecVersion)
	le.PutUint32(head[2:6], 0) // n = 0 skips the nseg > n check
	le.PutUint64(head[6:14], math.Float64bits(0))
	le.PutUint32(head[14:18], 0xFFFFFFF0) // absurd segment count
	buf.Write(head[:])
	var tmp [4]byte
	le.PutUint32(tmp[:], crc32.ChecksumIEEE(head[:]))
	buf.Write(tmp[:])
	if _, err := Unmarshal(buf.Bytes()); err == nil {
		t.Fatal("truncated stream with huge segment count accepted")
	}
	// Reaching here without an OOM kill is the real assertion.
}

func TestValidateRejectsNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, c := range []*Compressed{
		{N: 2, Segments: []Segment{{M: nan, Q: 0, Len: 2}}},
		{N: 2, Segments: []Segment{{M: 0, Q: nan, Len: 2}}},
		{N: 2, Segments: []Segment{{M: inf, Q: 0, Len: 2}}},
		{N: 2, Segments: []Segment{{M: 0, Q: -inf, Len: 2}}},
	} {
		if err := c.Validate(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Validate(%+v) = %v, want ErrNonFinite", c.Segments[0], err)
		}
	}
	if err := (&Compressed{N: 2, Delta: math.Inf(1), Segments: []Segment{{Len: 2}}}).Validate(); err == nil {
		t.Error("infinite delta accepted")
	}
}

func TestValidateRejectsLengthMismatch(t *testing.T) {
	for _, c := range []*Compressed{
		{N: 5, Segments: []Segment{{Len: 2}, {Len: 2}}}, // sums short
		{N: 3, Segments: []Segment{{Len: 2}, {Len: 2}}}, // sums long
		{N: 3, Segments: []Segment{{Len: 3}, {Len: 0}}}, // zero-length segment
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted inconsistent lengths %+v", c.Segments)
		}
	}
}

func TestLoadRejectsNonFinite(t *testing.T) {
	var u DecompressionUnit
	nan := float32(math.NaN())
	inf := float32(math.Inf(-1))
	for _, s := range []Segment{
		{M: nan, Q: 1, Len: 3},
		{M: 1, Q: nan, Len: 3},
		{M: inf, Q: 1, Len: 3},
		{M: 1, Q: inf, Len: 3},
	} {
		if err := u.Load(s); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Load(%+v) = %v, want ErrNonFinite", s, err)
		}
		if u.State() != StateIdle {
			t.Fatal("rejected load left the unit non-idle")
		}
	}
	if err := u.Load(Segment{M: 1, Q: 1, Len: 3}); err != nil {
		t.Fatalf("finite load rejected: %v", err)
	}
}
