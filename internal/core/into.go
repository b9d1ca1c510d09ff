package core

import "repro/internal/ieee"

// The Into variants are the zero-allocation reuse layer over the generic
// codec: every function appends to a caller-supplied buffer and returns the
// extended slice, so steady-state callers that recycle buffers (ring
// buffers, per-request arenas, sync.Pool) pay no allocations once the
// buffers are warm.
//
// The exported functions take a single Float type parameter; internally the
// codec pairs T with the bit-pattern Word of matching width. The pairing is
// pinned here by a width dispatch over reinterpreted views (float32↔uint32,
// float64↔uint64 — identical memory layout, so the views alias the caller's
// slices with capacity preserved).

// CompressInto compresses data, appending the stream onto dst.
func CompressInto[T Float](dst []byte, data []T, errBound float64, opts Options) ([]byte, error) {
	out, _, err := CompressIntoStats(dst, data, errBound, opts)
	return out, err
}

// CompressIntoStats is CompressInto but also reports per-run statistics.
func CompressIntoStats[T Float](dst []byte, data []T, errBound float64, opts Options) ([]byte, Stats, error) {
	if ieee.Width[T]() == 4 {
		return appendCompressed[float32, uint32](dst, asF32(data), errBound, opts)
	}
	return appendCompressed[float64, uint64](dst, asF64(data), errBound, opts)
}

// DecompressInto decompresses comp, appending the values onto dst. The
// stream's element type must match T.
func DecompressInto[T Float](dst []T, comp []byte) ([]T, error) {
	if ieee.Width[T]() == 4 {
		out, err := appendDecompressed[float32, uint32](asF32(dst), comp)
		return asT[T](out), err
	}
	out, err := appendDecompressed[float64, uint64](asF64(dst), comp)
	return asT[T](out), err
}

// CompressParallelInto is CompressInto with block-parallel encoding across
// workers goroutines (0 = GOMAXPROCS). The output bytes are identical to
// CompressInto's for any worker count.
func CompressParallelInto[T Float](dst []byte, data []T, errBound float64, opts Options, workers int) ([]byte, error) {
	if ieee.Width[T]() == 4 {
		return appendCompressedParallel[float32, uint32](dst, asF32(data), errBound, nil, opts, workers)
	}
	return appendCompressedParallel[float64, uint64](dst, asF64(data), errBound, nil, opts, workers)
}

// CompressRangeParallelInto is CompressParallelInto under the bound rb
// resolves from data's value range. On the parallel engine the range is
// the reduction of the per-block stats its first phase takes anyway, so
// the data is scanned once; on the serial fallback ValueRange scans it
// first. rb's error, if any, is returned before the block size's.
func CompressRangeParallelInto[T Float](dst []byte, data []T, rb RangeBound, opts Options, workers int) ([]byte, error) {
	if ieee.Width[T]() == 4 {
		return appendCompressedParallel[float32, uint32](dst, asF32(data), 0, rb, opts, workers)
	}
	return appendCompressedParallel[float64, uint64](dst, asF64(data), 0, rb, opts, workers)
}

// DecompressParallelInto is DecompressInto with block-parallel decoding.
func DecompressParallelInto[T Float](dst []T, comp []byte, workers int) ([]T, error) {
	if ieee.Width[T]() == 4 {
		out, err := appendDecompressedParallel[float32, uint32](asF32(dst), comp, workers)
		return asT[T](out), err
	}
	out, err := appendDecompressedParallel[float64, uint64](asF64(dst), comp, workers)
	return asT[T](out), err
}
