package sz

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"

	"repro/internal/huffman"
	"repro/internal/ieee"
)

// Every SZ stream, whatever its predictor and element width, starts with
// one envelope (multi-byte fields little-endian):
//
//	magic[4] version[1] ndims[1] errBound[8] capacity[4]
//	dims[8·ndims] nUnpred[8] packedLen[8]
//
// A flavour's own head follows it (the regression predictor's block table;
// nothing for Lorenzo), then packedLen bytes of quantization codes,
// Huffman-coded and DEFLATEd, then the nUnpred unpredictable values
// verbatim, 4 or 8 bytes each.
const (
	headerBase = 4 + 1 + 1 + 8 + 4 // magic, version, ndims, errBound, capacity
	version    = 1
)

// envelope is a stream's shared head.
type envelope struct {
	errBound  float64
	capacity  int
	dims      []int
	n         int // values: the product of dims
	nUnpred   int
	packedLen int
}

// appendStream lays out a whole stream: the envelope, the flavour's head,
// the packed codes and the unpredictable values.
func appendStream[F ieee.Float](magic string, errBound float64, capacity int, dims []int, head []byte, codes []int, unpred []F) ([]byte, error) {
	packed, err := packCodes(codes, capacity)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, headerBase+8*len(dims)+16+len(head)+len(packed)+ieee.Width[F]()*len(unpred))
	out = append(out, magic...)
	out = append(out, version, byte(len(dims)))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(errBound))
	out = binary.LittleEndian.AppendUint32(out, uint32(capacity))
	for _, d := range dims {
		out = binary.LittleEndian.AppendUint64(out, uint64(d))
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(len(unpred)))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(packed)))
	out = append(out, head...)
	out = append(out, packed...)
	return appendValues(out, unpred), nil
}

// readEnvelope parses the envelope of a stream with the given magic and
// returns the offset just past it. headLen is the fixed part of the
// flavour's head, which must be present too.
func readEnvelope(comp []byte, magic string, headLen int) (envelope, int, error) {
	var e envelope
	if len(comp) < headerBase || string(comp[:4]) != magic {
		return e, 0, ErrBadMagic
	}
	if comp[4] != version {
		return e, 0, ErrCorrupt
	}
	ndims := int(comp[5])
	if ndims < 1 || ndims > 4 {
		return e, 0, ErrCorrupt
	}
	e.errBound = math.Float64frombits(binary.LittleEndian.Uint64(comp[6:]))
	e.capacity = int(binary.LittleEndian.Uint32(comp[14:]))
	// A non-finite bound is corrupt, as sz.Compress refuses to write one:
	// an +Inf bound would otherwise decode every value to NaN.
	if !(e.errBound > 0) || math.IsInf(e.errBound, 0) || e.capacity < 4 || e.capacity > 1<<22 {
		return e, 0, ErrCorrupt
	}
	pos := headerBase
	if len(comp) < pos+8*ndims+16+headLen {
		return e, 0, ErrCorrupt
	}
	e.dims = make([]int, ndims)
	e.n = 1
	for i := range e.dims {
		d := int(binary.LittleEndian.Uint64(comp[pos:]))
		pos += 8
		if d < 1 || d > 1<<30 || e.n > 1<<31/d {
			return e, 0, ErrCorrupt
		}
		e.dims[i] = d
		e.n *= d
	}
	e.nUnpred = int(binary.LittleEndian.Uint64(comp[pos:]))
	e.packedLen = int(binary.LittleEndian.Uint64(comp[pos+8:]))
	pos += 16
	// Bounding packedLen by the stream keeps the payload's offset sums
	// from overflowing.
	if e.nUnpred < 0 || e.nUnpred > e.n || e.packedLen < 0 || e.packedLen > len(comp) {
		return e, 0, ErrCorrupt
	}
	return e, pos, nil
}

// readPayload decodes the packed codes and the unpredictable values that
// end every stream, starting at pos.
func readPayload[F ieee.Float](comp []byte, pos int, e envelope) ([]int, []F, error) {
	if len(comp) < pos+e.packedLen+ieee.Width[F]()*e.nUnpred {
		return nil, nil, ErrCorrupt
	}
	huffBytes, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp[pos : pos+e.packedLen])))
	if err != nil {
		return nil, nil, ErrCorrupt
	}
	codes, _, err := huffman.DecodeAll(huffBytes, e.n)
	if err != nil {
		return nil, nil, ErrCorrupt
	}
	return codes, readValues[F](comp[pos+e.packedLen:], e.nUnpred), nil
}

// packCodes Huffman-codes the quantization codes, then DEFLATEs them
// (standing in for SZ 2.1's Zstd stage).
func packCodes(codes []int, capacity int) ([]byte, error) {
	huffBytes, err := huffman.EncodeAll(codes, capacity)
	if err != nil {
		return nil, err
	}
	// BestSpeed is a valid level and a bytes.Buffer never fails a write,
	// so the flate calls cannot fail.
	var packed bytes.Buffer
	fw, _ := flate.NewWriter(&packed, flate.BestSpeed)
	fw.Write(huffBytes)
	fw.Close()
	return packed.Bytes(), nil
}

// appendValues stores values verbatim: 4 bytes each for float32, 8 for
// float64.
func appendValues[F ieee.Float](out []byte, vals []F) []byte {
	for _, v := range vals {
		if ieee.Width[F]() == 4 {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
		} else {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(v)))
		}
	}
	return out
}

// readValues reverses appendValues for n values; b must hold them.
func readValues[F ieee.Float](b []byte, n int) []F {
	out := make([]F, n)
	for i := range out {
		if ieee.Width[F]() == 4 {
			out[i] = F(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		} else {
			out[i] = F(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return out
}
