// Package core implements the SZx ultrafast error-bounded lossy compression
// algorithm (Yu et al., HPDC '22) for float32 and float64 data.
//
// The dataset is split into fixed-size 1-D blocks. Blocks whose variation
// radius r = (max-min)/2 does not exceed the error bound are "constant" and
// stored as a single representative value μ = (min+max)/2. Other blocks are
// normalized by μ and each value's IEEE-754 word is truncated to the number
// of significant bits required by the error bound (Formula 4), right-shifted
// so the kept prefix is a whole number of bytes (Solution C, Formula 5), and
// delta-encoded against the previous value via identical-leading-byte codes.
//
// A per-block compressed-size array (zsize) is embedded so decompression can
// proceed block-parallel after a prefix sum, mirroring the paper's OpenMP and
// CUDA designs.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/telemetry"
)

// DefaultBlockSize is the paper's empirically best block size (§5.3).
const DefaultBlockSize = 128

// MaxBlockSize bounds the block size so that a worst-case (lossless float64)
// block payload still fits the uint16 per-block size record. It is defined
// by the kernel layer (whose fixed-size scratch buffers must cover a whole
// block) and re-exported here as the format-level limit.
const MaxBlockSize = kernels.MaxBlockSize

// maxBlockPayload64 is the largest payload a single block can produce: a
// lossless float64 block at MaxBlockSize stores μ (8B), reqLength (1B), the
// packed 2-bit lead array, and all 8 mid-bytes of every value (the lead
// codes can be zero for every value, so no delta saving).
const maxBlockPayload64 = 8 + 1 + (MaxBlockSize+3)/4 + 8*MaxBlockSize

// The zsize index records each block's payload length as uint16; this
// conversion fails to compile if MaxBlockSize is ever raised past the point
// where the worst-case payload no longer fits.
const _ = uint16(maxBlockPayload64)

// Stream layout constants.
const (
	headerSize = 28
	magic      = "SZX1"
	version    = 1
)

// HeaderSize is the byte length of the fixed stream header; exported so
// higher layers (the fixed-ratio estimator, container tooling) can account
// for per-stream overhead without re-deriving the layout.
const HeaderSize = headerSize

// DType identifies the element type of a compressed stream.
type DType byte

// Element types supported by the codec.
const (
	TypeFloat32 DType = 0
	TypeFloat64 DType = 1
)

func (t DType) String() string {
	switch t {
	case TypeFloat32:
		return "float32"
	case TypeFloat64:
		return "float64"
	default:
		return fmt.Sprintf("DType(%d)", byte(t))
	}
}

// Size returns the element size in bytes.
func (t DType) Size() int {
	if t == TypeFloat64 {
		return 8
	}
	return 4
}

// Errors reported by the codec.
var (
	ErrBadMagic   = errors.New("szx: not an SZx stream (bad magic)")
	ErrBadVersion = errors.New("szx: unsupported stream version")
	ErrCorrupt    = errors.New("szx: corrupt or truncated stream")
	ErrErrBound   = errors.New("szx: error bound must be a positive finite number")
	ErrBlockSize  = errors.New("szx: block size out of range")
	ErrWrongType  = errors.New("szx: stream element type does not match request")
)

// Options configures compression.
type Options struct {
	// BlockSize is the number of consecutive values per block.
	// Zero selects DefaultBlockSize.
	BlockSize int
	// Unguarded disables the per-block error-bound verification pass.
	// The guarded (default) mode re-encodes a block with more significant
	// bits in the rare case where floating-point rounding in the μ
	// normalization would push the reconstruction error past the bound,
	// making |d-d'| ≤ e a hard guarantee rather than a probabilistic one.
	Unguarded bool
	// Spans, when non-nil, receives this call's stage intervals ("encode"
	// on the serial path, "encode_phase"/"gather_phase" on the parallel
	// path) for request-scoped tracing. Independent of the aggregate
	// telemetry gate, and it never changes the output bytes.
	Spans telemetry.SpanSink
}

func (o Options) blockSize() (int, error) {
	b := o.BlockSize
	if b == 0 {
		b = DefaultBlockSize
	}
	if b < 1 || b > MaxBlockSize {
		return 0, ErrBlockSize
	}
	return b, nil
}

// Header describes a compressed stream.
type Header struct {
	Type      DType
	BlockSize int
	N         int     // number of values
	ErrBound  float64 // resolved absolute error bound
}

// NumBlocks returns the number of blocks in the stream.
func (h Header) NumBlocks() int {
	if h.N == 0 {
		return 0
	}
	return (h.N + h.BlockSize - 1) / h.BlockSize
}

// AppendHeader serializes h onto dst in the stream's header layout. It is
// exported for the cuszx package, which assembles bit-identical streams
// from its simulated-GPU kernels.
func AppendHeader(dst []byte, h Header) []byte {
	var buf [headerSize]byte
	copy(buf[:4], magic)
	buf[4] = version
	buf[5] = byte(h.Type)
	buf[6] = 0 // flags, reserved
	buf[7] = 0 // reserved
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.BlockSize))
	binary.LittleEndian.PutUint64(buf[12:], uint64(h.N))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(h.ErrBound))
	return append(dst, buf[:]...)
}

// ParseHeader decodes and validates the stream header.
func ParseHeader(comp []byte) (Header, error) {
	if len(comp) < headerSize {
		return Header{}, ErrCorrupt
	}
	if string(comp[:4]) != magic {
		return Header{}, ErrBadMagic
	}
	if comp[4] != version {
		return Header{}, ErrBadVersion
	}
	h := Header{
		Type:      DType(comp[5]),
		BlockSize: int(binary.LittleEndian.Uint32(comp[8:])),
		N:         int(binary.LittleEndian.Uint64(comp[12:])),
		ErrBound:  math.Float64frombits(binary.LittleEndian.Uint64(comp[20:])),
	}
	if h.Type != TypeFloat32 && h.Type != TypeFloat64 {
		return Header{}, ErrCorrupt
	}
	if h.BlockSize < 1 || h.BlockSize > MaxBlockSize {
		return Header{}, ErrCorrupt
	}
	// Cap N so block-count arithmetic cannot overflow (2^48 values is far
	// beyond any realistic dataset and still leaves nb*2 etc. in range).
	if h.N < 0 || h.N > 1<<48 {
		return Header{}, ErrCorrupt
	}
	return h, nil
}

// Index locates the fixed-position sections that follow the header. It is
// exported so the cuszx package can decode the same stream layout.
type Index struct {
	Hdr     Header
	Bitmap  []byte // 1 bit per block, 1 = nonconstant
	Zsize   []byte // uint16 little-endian per block
	Payload []byte // concatenated per-block payloads
}

// ParseStream validates the container and returns the section index. The
// payload's capacity ends at len(comp): a block's payload slice then runs
// into the blocks after it, which the decode kernels may read past a
// block's end (DecodeScan's read slack), but never into bytes of comp's
// backing array that belong to someone else.
func ParseStream(comp []byte) (Index, error) {
	h, err := ParseHeader(comp)
	if err != nil {
		return Index{}, err
	}
	nb := h.NumBlocks()
	bitmapLen := (nb + 7) / 8
	zsizeLen := 2 * nb
	off := headerSize
	if len(comp) < off+bitmapLen+zsizeLen {
		return Index{}, ErrCorrupt
	}
	si := Index{
		Hdr:     h,
		Bitmap:  comp[off : off+bitmapLen],
		Zsize:   comp[off+bitmapLen : off+bitmapLen+zsizeLen],
		Payload: comp[off+bitmapLen+zsizeLen : len(comp) : len(comp)],
	}
	return si, nil
}

// IsNonConstant reports whether block k took the nonconstant path.
func (si Index) IsNonConstant(k int) bool {
	return si.Bitmap[k>>3]&(1<<uint(k&7)) != 0
}

// BlockSizeBytes returns block k's payload length from the zsize array.
func (si Index) BlockSizeBytes(k int) int {
	return int(binary.LittleEndian.Uint16(si.Zsize[2*k:]))
}

// BlockOffsets computes the starting offset of every block payload via a
// prefix sum over the zsize array (the decompressor's "prefix sum" step in
// Fig. 10 of the paper). The returned slice has NumBlocks+1 entries; the
// final entry is the total payload length, which is validated against the
// actual payload section.
func (si Index) BlockOffsets() ([]int, error) {
	nb := si.Hdr.NumBlocks()
	offs := make([]int, nb+1)
	sum := 0
	for k := 0; k < nb; k++ {
		offs[k] = sum
		sum += si.BlockSizeBytes(k)
	}
	offs[nb] = sum
	if sum > len(si.Payload) {
		return nil, ErrCorrupt
	}
	return offs, nil
}

// Stats summarizes a compression run; useful for the paper's block-size and
// overhead characterizations.
type Stats struct {
	Blocks         int // total blocks
	ConstantBlocks int // blocks stored as a single μ
	LosslessBlocks int // nonconstant blocks that required the full word
	GuardRetries   int // blocks re-encoded by the guard pass
	CompressedSize int // total output bytes
	OriginalSize   int // input bytes

	// EffectiveBound is the absolute error bound the stream was encoded
	// with — the same value embedded in the header. For relative or
	// fixed-ratio requests this is the resolved bound, not the request
	// parameter.
	EffectiveBound float64
	// Fixed-ratio trace, filled by the szx bound-resolution layer when the
	// run was driven by Options.TargetRatio (zero otherwise).
	TargetRatio    float64 // requested ratio
	RatioProbes    int     // sampled compression probes the search spent
	RatioConverged bool    // search ended within tolerance of the target
}

// Ratio returns the compression ratio (original size / compressed size).
func (s Stats) Ratio() float64 {
	if s.CompressedSize == 0 {
		return 0
	}
	return float64(s.OriginalSize) / float64(s.CompressedSize)
}
