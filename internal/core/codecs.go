package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Codec is a pluggable weight-compression scheme. A codec maps a float64
// parameter succession to an opaque serialized stream and back; the
// stream is the unit of storage, traffic accounting and integrity
// checking, so every scheme — the paper's segment codec, the lossless
// baselines, bit-plane compression, quantization + entropy coding — is
// comparable in one mixed-codec experiment and searchable by one
// planner.
//
// Levels parameterize how aggressive the codec is; their meaning is
// codec-specific (tolerance percent for the segment codec, dropped
// bit planes for the quantized codecs) but the ladder always ascends
// from least to most aggressive. Lossless codecs expose the single
// level 0.
//
// Implementations must be safe for concurrent use: the experiment
// engine calls one codec from many worker goroutines.
type Codec interface {
	// Name identifies the codec in registries, plans and CSVs.
	Name() string
	// Lossless reports whether Decompress(Compress(w)) reproduces w
	// exactly (at float32 precision, the width of the weight datapath).
	Lossless() bool
	// Levels is the codec's default ascending escalation ladder.
	Levels() []float64
	// Compress encodes w at the given level into a self-describing
	// stream. The input slice is not modified.
	Compress(w []float64, level float64) ([]byte, error)
	// Decompress decodes a stream produced by Compress back into the
	// (possibly approximated) parameter succession.
	Decompress(stream []byte) ([]float64, error)
	// CompressedBits is the storage/traffic accounting of a stream
	// under the given storage model: the bits the weight memory holds
	// and the NoC ships, including any side-channel cost (code tables,
	// quantization parameters, headers). Only the segment codec's
	// accounting varies with the StorageModel; byte-oriented codecs
	// charge their full serialized size.
	CompressedBits(stream []byte, sm StorageModel) (int, error)
	// Validate checks a stream for structural integrity without
	// materializing the weights, returning a non-nil error for
	// truncated, corrupt or empty input.
	Validate(stream []byte) error
}

// ErrUnknownCodec is returned by LookupCodec for unregistered names.
var ErrUnknownCodec = errors.New("core: unknown codec")

var (
	codecMu       sync.RWMutex
	codecRegistry = map[string]Codec{}
)

// RegisterCodec adds a codec to the process-wide registry, keyed by
// Name. Registering an empty name or a duplicate is an error.
func RegisterCodec(c Codec) error {
	if c == nil || c.Name() == "" {
		return errors.New("core: registering codec without a name")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecRegistry[c.Name()]; dup {
		return fmt.Errorf("core: codec %q already registered", c.Name())
	}
	codecRegistry[c.Name()] = c
	return nil
}

// MustRegisterCodec is RegisterCodec that panics on error; for use from
// package init functions.
func MustRegisterCodec(c Codec) {
	if err := RegisterCodec(c); err != nil {
		panic(err)
	}
}

// LookupCodec resolves a registered codec by name.
func LookupCodec(name string) (Codec, error) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecRegistry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, name)
	}
	return c, nil
}

// CodecNames returns the registered codec names, sorted.
func CodecNames() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	names := make([]string, 0, len(codecRegistry))
	for n := range codecRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisteredCodecs returns every registered codec, sorted by name, so
// iteration order (and therefore any experiment output derived from it)
// is deterministic.
func RegisteredCodecs() []Codec {
	names := CodecNames()
	out := make([]Codec, len(names))
	for i, n := range names {
		c, _ := LookupCodec(n)
		out[i] = c
	}
	return out
}

// SegmentCodecName is the registry name of the paper's codec.
const SegmentCodecName = "segment"

// segmentCodec adapts the paper's slope/intercept segment compression to
// the Codec interface. The level is the tolerance threshold delta as a
// percent of the parameter amplitude (CompressPct); the stream is the
// checksummed archival format of Marshal/Unmarshal.
type segmentCodec struct{}

// SegmentCodec returns the paper's codec as a Codec.
func SegmentCodec() Codec { return segmentCodec{} }

func (segmentCodec) Name() string      { return SegmentCodecName }
func (segmentCodec) Lossless() bool    { return false }
func (segmentCodec) Levels() []float64 { return []float64{0, 2, 5, 10, 15, 20} }

func (segmentCodec) Compress(w []float64, level float64) ([]byte, error) {
	c, err := CompressPct(w, level)
	if err != nil {
		return nil, err
	}
	// Non-finite inputs fit to non-finite coefficients; reject here so
	// Compress never emits a stream its own Validate refuses.
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.Marshal(), nil
}

func (segmentCodec) Decompress(stream []byte) ([]float64, error) {
	c, err := Unmarshal(stream)
	if err != nil {
		return nil, err
	}
	return c.Decompress()
}

func (segmentCodec) CompressedBits(stream []byte, sm StorageModel) (int, error) {
	c, err := Unmarshal(stream)
	if err != nil {
		return 0, err
	}
	return c.CompressedBits(sm), nil
}

func (segmentCodec) Validate(stream []byte) error {
	_, err := Unmarshal(stream) // Unmarshal validates structure and checksums
	return err
}

func init() {
	MustRegisterCodec(SegmentCodec())
}
