package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary stream layout (little endian):
//
//	magic   [4]byte  "NCWC" (NoC CNN Weights Compression)
//	version uint16
//	n       uint32   original parameter count
//	delta   float64  absolute tolerance used
//	nseg    uint32   segment count
//	hcrc    uint32   CRC32-IEEE over version..nseg
//	nseg x {
//	    m float32, q float32, len uint32
//	    crc uint32   CRC32-IEEE over uint32(index) || m || q || len
//	}
//
// The header checksum and the per-segment CRC32 keyed by the segment
// index detect a corrupted, truncated or reordered stream with
// ErrChecksum instead of silently regenerating garbage weights. Only
// version 2 is read or written; the unchecksummed version 1 layout is
// rejected with ErrBadVersion. This is the archival format used by
// cmd/compress; the hardware storage accounting for compression ratios
// is StorageModel, not this layout.
var magic = [4]byte{'N', 'C', 'W', 'C'}

const (
	codecVersion   uint16 = 2
	headerBytes           = 2 + 4 + 8 + 4 // version + n + delta + nseg
	segRecordBytes        = 4 + 4 + 4     // m + q + len, before the segment CRC
	// maxSegPrealloc caps the Segment allocation made before any segment
	// record has been read, so a corrupt count field cannot demand
	// gigabytes up front; the slice grows by append past this.
	maxSegPrealloc = 1 << 16
)

// Codec errors.
var (
	ErrBadMagic   = errors.New("core: bad magic, not a compressed weight stream")
	ErrBadVersion = errors.New("core: unsupported codec version")
	ErrCorrupt    = errors.New("core: corrupt compressed stream")
	ErrChecksum   = errors.New("core: checksum mismatch, corrupted stream")
)

// segCRC returns the CRC32 protecting segment record rec at the given
// stream position. Folding the index in catches reordered records whose
// bytes are individually intact.
func segCRC(index uint32, rec []byte) uint32 {
	var idx [4]byte
	binary.LittleEndian.PutUint32(idx[:], index)
	return crc32.Update(crc32.ChecksumIEEE(idx[:]), crc32.IEEETable, rec)
}

// WriteTo serializes the compressed succession to w.
func (c *Compressed) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	le := binary.LittleEndian
	var tmp [8]byte
	le.PutUint16(tmp[:2], codecVersion)
	buf.Write(tmp[:2])
	le.PutUint32(tmp[:4], uint32(c.N))
	buf.Write(tmp[:4])
	le.PutUint64(tmp[:8], math.Float64bits(c.Delta))
	buf.Write(tmp[:8])
	le.PutUint32(tmp[:4], uint32(len(c.Segments)))
	buf.Write(tmp[:4])
	le.PutUint32(tmp[:4], crc32.ChecksumIEEE(buf.Bytes()[len(magic):]))
	buf.Write(tmp[:4])
	for i, s := range c.Segments {
		var rec [segRecordBytes]byte
		le.PutUint32(rec[0:4], math.Float32bits(s.M))
		le.PutUint32(rec[4:8], math.Float32bits(s.Q))
		le.PutUint32(rec[8:12], uint32(s.Len))
		buf.Write(rec[:])
		le.PutUint32(tmp[:4], segCRC(uint32(i), rec[:]))
		buf.Write(tmp[:4])
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Marshal serializes the compressed succession to a byte slice.
func (c *Compressed) Marshal() []byte {
	var buf bytes.Buffer
	c.WriteTo(&buf) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// ReadCompressed parses a compressed succession from r. Corruption
// surfaces as an error wrapping ErrChecksum.
func ReadCompressed(r io.Reader) (*Compressed, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if hdr != magic {
		return nil, ErrBadMagic
	}
	le := binary.LittleEndian
	var head [headerBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	version := le.Uint16(head[0:2])
	if version != codecVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	n := int(le.Uint32(head[2:6]))
	delta := math.Float64frombits(le.Uint64(head[6:14]))
	nseg := int(le.Uint32(head[14:18]))
	var tmp [4]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return nil, fmt.Errorf("core: reading header checksum: %w", err)
	}
	if got := le.Uint32(tmp[:]); got != crc32.ChecksumIEEE(head[:]) {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	if nseg > n && n > 0 {
		return nil, fmt.Errorf("%w: %d segments for %d params", ErrCorrupt, nseg, n)
	}
	prealloc := nseg
	if prealloc > maxSegPrealloc {
		prealloc = maxSegPrealloc
	}
	segs := make([]Segment, 0, prealloc)
	for i := 0; i < nseg; i++ {
		var rec [segRecordBytes]byte
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("core: reading segment %d: %w", i, err)
		}
		if _, err := io.ReadFull(r, tmp[:]); err != nil {
			return nil, fmt.Errorf("core: reading segment %d checksum: %w", i, err)
		}
		if got := le.Uint32(tmp[:]); got != segCRC(uint32(i), rec[:]) {
			return nil, fmt.Errorf("%w: segment %d", ErrChecksum, i)
		}
		s := Segment{
			M:   math.Float32frombits(le.Uint32(rec[0:4])),
			Q:   math.Float32frombits(le.Uint32(rec[4:8])),
			Len: int(le.Uint32(rec[8:12])),
		}
		if s.Len <= 0 {
			return nil, fmt.Errorf("%w: segment %d has length %d", ErrCorrupt, i, s.Len)
		}
		segs = append(segs, s)
	}
	c := &Compressed{N: n, Delta: delta, Segments: segs}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, nil
}

// Unmarshal parses a compressed succession from a byte slice.
func Unmarshal(data []byte) (*Compressed, error) {
	return ReadCompressed(bytes.NewReader(data))
}
