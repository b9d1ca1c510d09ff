package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// Streaming codec: an io.Writer/io.Reader pair that carries an unbounded
// sequence of float32 values as independently compressed chunks. This is
// the shape the paper's online instrument-data use case needs (LCLS-II,
// §1): data arrives continuously, each chunk is compressed and flushed
// with bounded latency and memory, and a crashed stream is readable up to
// the last complete chunk.
//
// Wire format:
//
//	"SZXS" u8(version)
//	repeat: u32 frameLen | SZx stream of one chunk
//	u32(0) terminator
//
// With Mode == BoundRelative the bound is resolved against each chunk's
// own value range (instruments rarely know the global range in advance);
// use BoundAbsolute for a range-independent guarantee.

const (
	streamMagic   = "SZXS"
	streamVersion = 1
	// DefaultChunkValues is the streaming chunk size (values).
	DefaultChunkValues = 1 << 18
)

// ErrStream reports a malformed streaming container.
var ErrStream = errors.New("szx: malformed stream container")

// FrameError reports a malformed, truncated, or undecodable frame in a
// streaming container. It carries the zero-based frame index and the byte
// offset of the frame's length prefix within the container, so corruption
// reports name the exact spot instead of a bare "unexpected EOF"; the
// underlying cause (io.ErrUnexpectedEOF, ErrCorrupt, ...) stays reachable
// through errors.Is/As, as does ErrStream. Every FrameError also
// increments the telemetry stream-frame-error counter (error counters are
// not gated on telemetry being enabled — corruption is rare enough that
// counting it is free, and the count is the first thing an operator wants).
type FrameError struct {
	Frame  int   // zero-based frame index within the stream
	Offset int64 // byte offset of the frame's length prefix in the container
	Err    error // underlying cause
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("szx: stream frame %d (container offset %d): %v", e.Frame, e.Offset, e.Err)
}

// Unwrap exposes both ErrStream and the underlying cause.
func (e *FrameError) Unwrap() []error { return []error{ErrStream, e.Err} }

// Writer and Reader are the streaming engine on its inline schedule (see
// pipeline.go): NewWriter and NewReader run every stage on the caller's
// goroutine, so nothing runs in the background and a Reader needs no Close.
type (
	Writer = PipeWriter
	Reader = PipeReader
)

// NewWriter returns a streaming compressor writing to w. ChunkValues
// controls the chunk granularity (0 = DefaultChunkValues). Each chunk is
// compressed on the caller's goroutine with opt as given, so opt.Workers
// parallelizes within a chunk; Close flushes the tail chunk and writes the
// terminator.
func NewWriter(w io.Writer, opt Options, chunkValues int) *Writer {
	if chunkValues <= 0 {
		chunkValues = DefaultChunkValues
	}
	return &Writer{w: w, opt: opt, chunk: chunkValues}
}

// NewReader returns a streaming decompressor reading from r that reads and
// decodes each frame on the caller's goroutine when Read needs it.
func NewReader(r io.Reader) *Reader {
	return &Reader{frames: frameReader{r: r}}
}

// maxFrameLen caps a frame's length prefix (1..maxFrameLen; 0 is the
// terminator).
const maxFrameLen = 1 << 31

// beginFrame appends the container header when first, then a zero length
// prefix that endFrame sets once the payload follows it; it returns the
// prefix's offset. A frame left empty is the terminator.
func beginFrame(dst []byte, first bool) ([]byte, int) {
	if first {
		dst = append(dst, streamMagic...)
		dst = append(dst, streamVersion)
	}
	return append(dst, 0, 0, 0, 0), len(dst)
}

// endFrame sets the length prefix at off to the payload appended after it.
func endFrame(frame []byte, off int) {
	binary.LittleEndian.PutUint32(frame[off:], uint32(len(frame)-off-4))
}

// appendEnd appends the terminator, after the container header when no
// frame precedes it.
func appendEnd(dst []byte, first bool) []byte {
	dst, _ = beginFrame(dst, first)
	return dst
}

// frameReader reads a container's frames in order, header first.
type frameReader struct {
	r   io.Reader
	idx int   // index of the next frame
	off int64 // container bytes consumed
}

// next reads the next frame's payload into dst (reused) and returns it with
// the frame's index and the offset of its length prefix. It returns io.EOF
// at the terminator; any other error is final: ErrStream for a bad
// container header, a *FrameError for a bad frame.
func (fr *frameReader) next(dst []byte) (frame []byte, idx int, off int64, err error) {
	if fr.off == 0 {
		var hdr [5]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			return dst, 0, 0, fmt.Errorf("%w: container header: %w", ErrStream, err)
		}
		if string(hdr[:4]) != streamMagic || hdr[4] != streamVersion {
			return dst, 0, 0, ErrStream
		}
		fr.off = int64(len(hdr))
	}
	idx, off = fr.idx, fr.off
	var lenBuf [4]byte
	if _, err := io.ReadFull(fr.r, lenBuf[:]); err != nil {
		return dst, idx, off, &FrameError{Frame: idx, Offset: off,
			Err: fmt.Errorf("truncated frame header: %w", err)}
	}
	fr.off += 4
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 {
		return dst, idx, off, io.EOF
	}
	if n > maxFrameLen {
		return dst, idx, off, &FrameError{Frame: idx, Offset: off,
			Err: fmt.Errorf("frame length %d out of range", n)}
	}
	frame, err = readFrameBody(fr.r, dst, int(n))
	fr.off += int64(len(frame))
	if err != nil {
		return frame, idx, off, &FrameError{Frame: idx, Offset: off,
			Err: fmt.Errorf("truncated frame (%d of %d payload bytes): %w", len(frame), n, err)}
	}
	fr.idx++
	return frame, idx, off, nil
}

// readFrameBody reads frameLen payload bytes from r directly into the
// (reused) dst buffer, growing it incrementally so a forged length prefix
// cannot force a huge up-front allocation: capacity starts at ≤1 MiB and
// doubles only as real bytes arrive, so memory stays proportional to what
// was actually received. It returns the bytes received and any read error.
func readFrameBody(r io.Reader, dst []byte, frameLen int) ([]byte, error) {
	const step = 1 << 20
	frame := dst[:0]
	if cap(frame) < min(frameLen, step) {
		frame = make([]byte, 0, min(frameLen, step))
	}
	for len(frame) < frameLen {
		off := len(frame)
		avail := cap(frame) - off
		if avail == 0 {
			newCap := min(max(2*cap(frame), step), frameLen)
			grown := make([]byte, off, newCap)
			copy(grown, frame)
			frame = grown
			avail = newCap - off
		}
		n := min(frameLen-off, avail)
		got, err := io.ReadFull(r, frame[off:off+n])
		frame = frame[:off+got]
		if err != nil {
			return frame, err
		}
	}
	return frame, nil
}

// --- random access ---------------------------------------------------------

// DecompressRange reconstructs values [lo, hi) from a (non-streaming)
// compressed buffer, decoding only the blocks that overlap the range —
// random access enabled by the embedded per-block size array.
func DecompressRange(comp []byte, lo, hi int) ([]float32, error) {
	return core.DecompressFloat32Range(comp, lo, hi)
}

// DecompressFloat64Range is the float64 analogue of DecompressRange.
func DecompressFloat64Range(comp []byte, lo, hi int) ([]float64, error) {
	return core.DecompressFloat64Range(comp, lo, hi)
}
