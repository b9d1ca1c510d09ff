package zfp

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/bitio"
	"repro/internal/ieee"
)

// version is the stream format version; the magic comes from formatOf.
const version = 1

// Errors returned by the codec.
var (
	ErrBadMagic = errors.New("zfp: not a ZFP stream")
	ErrCorrupt  = errors.New("zfp: corrupt or truncated stream")
	ErrErrBound = errors.New("zfp: tolerance must be a positive finite number")
	ErrDims     = errors.New("zfp: dims must be 1-4 positive values whose product is len(data)")
)

// Compress compresses data (row-major, dims slowest-first) in fixed-accuracy
// mode: every reconstructed value differs from the original by at most
// tolerance. 4-D inputs are treated as a stack of 3-D volumes.
//
// As in the original float32 ZFP, the bound is honored down to the int32
// quantization floor: tolerances below roughly maxAbs*2^-20 degrade to that
// floor (far below any error bound used in the paper's evaluation).
func Compress(data []float32, dims []int, tolerance float64) ([]byte, error) {
	return compress[float32, int32, uint32](data, dims, tolerance)
}

// Decompress reconstructs values and dimensions from a Compress stream.
func Decompress(comp []byte) ([]float32, []int, error) {
	return decompress[float32, int32, uint32](comp)
}

// CompressFloat64 is the float64 fixed-accuracy compressor, the double
// precision analogue of Compress: int64 coefficients, 64 bit planes and a
// 12-bit block exponent, as in the original's double-precision
// instantiation.
func CompressFloat64(data []float64, dims []int, tolerance float64) ([]byte, error) {
	return compress[float64, int64, uint64](data, dims, tolerance)
}

// DecompressFloat64 reverses CompressFloat64.
func DecompressFloat64(comp []byte) ([]float64, []int, error) {
	return decompress[float64, int64, uint64](comp)
}

func compress[F ieee.Float, I coeff, U ieee.Word](data []F, dims []int, tolerance float64) ([]byte, error) {
	if !(tolerance > 0) || math.IsInf(tolerance, 0) {
		return nil, ErrErrBound
	}
	if err := checkDims(dims, len(data)); err != nil {
		return nil, err
	}
	_, minexp := math.Frexp(tolerance)
	minexp-- // tolerance >= 2^minexp

	w := bitio.NewWriter(ieee.Width[F]() * len(data) / 4)
	var block [64]F
	var fblock [64]I
	forEachBlock(data, dims, block[:], func(blk []F, bdims int) {
		encodeBlock[F, I, U](w, blk, fblock[:], bdims, minexp)
	})

	payload := w.Bytes()
	out := make([]byte, 0, 32+8*len(dims)+len(payload))
	out = append(out, formatOf[F]().magic...)
	out = append(out, version, byte(len(dims)))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(tolerance))
	for _, d := range dims {
		out = binary.LittleEndian.AppendUint64(out, uint64(d))
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(w.Len()))
	return append(out, payload...), nil
}

func decompress[F ieee.Float, I coeff, U ieee.Word](comp []byte) ([]F, []int, error) {
	if len(comp) < 14 || string(comp[:4]) != formatOf[F]().magic {
		return nil, nil, ErrBadMagic
	}
	if comp[4] != version {
		return nil, nil, ErrCorrupt
	}
	ndims := int(comp[5])
	if ndims < 1 || ndims > 4 {
		return nil, nil, ErrCorrupt
	}
	tolerance := math.Float64frombits(binary.LittleEndian.Uint64(comp[6:]))
	if !(tolerance > 0) || math.IsInf(tolerance, 0) {
		return nil, nil, ErrCorrupt
	}
	pos := 14
	if len(comp) < pos+8*ndims+8 {
		return nil, nil, ErrCorrupt
	}
	dims := make([]int, ndims)
	n := 1
	for i := range dims {
		dims[i] = int(binary.LittleEndian.Uint64(comp[pos:]))
		pos += 8
		if dims[i] < 1 || dims[i] > 1<<30 || n > 1<<31/dims[i] {
			return nil, nil, ErrCorrupt
		}
		n *= dims[i]
	}
	bitLen := int(binary.LittleEndian.Uint64(comp[pos:]))
	pos += 8
	if bitLen < 0 || len(comp) < pos+(bitLen+7)/8 {
		return nil, nil, ErrCorrupt
	}
	// Every 4^d block costs at least its significance bit, so a forged
	// shape cannot force an allocation far beyond the actual payload.
	nBlocks := 1
	for _, d := range dims {
		nBlocks *= (d + 3) / 4
	}
	if nBlocks > bitLen {
		return nil, nil, ErrCorrupt
	}
	_, minexp := math.Frexp(tolerance)
	minexp--

	r := bitio.NewReader(comp[pos:])
	out := make([]F, n)
	var block [64]F
	var fblock [64]I
	var derr error
	forEachBlockScatter(out, dims, block[:], func(blk []F, bdims int) bool {
		if err := decodeBlock[F, I, U](r, blk, fblock[:], bdims, minexp); err != nil {
			derr = err
			return false
		}
		return true
	})
	if derr != nil {
		return nil, nil, ErrCorrupt
	}
	return out, dims, nil
}

func checkDims(dims []int, n int) error {
	if len(dims) < 1 || len(dims) > 4 {
		return ErrDims
	}
	p := 1
	for _, d := range dims {
		if d < 1 {
			return ErrDims
		}
		p *= d
	}
	if p != n {
		return ErrDims
	}
	return nil
}

// clamp limits an index to [0, n-1]; partial blocks replicate edge values.
func clamp(i, n int) int {
	if i >= n {
		return n - 1
	}
	return i
}

// forEachBlock gathers each 4^d block (edge-replicated at partial borders)
// and hands it to visit. 4-D data is processed as dims[0] independent 3-D
// volumes, as in ZFP.
func forEachBlock[F ieee.Float](data []F, dims []int, block []F, visit func(blk []F, bdims int)) {
	switch len(dims) {
	case 1:
		n := dims[0]
		for x0 := 0; x0 < n; x0 += 4 {
			for i := 0; i < 4; i++ {
				block[i] = data[clamp(x0+i, n)]
			}
			visit(block[:4], 1)
		}
	case 2:
		h, wd := dims[0], dims[1]
		for y0 := 0; y0 < h; y0 += 4 {
			for x0 := 0; x0 < wd; x0 += 4 {
				for j := 0; j < 4; j++ {
					row := clamp(y0+j, h) * wd
					for i := 0; i < 4; i++ {
						block[4*j+i] = data[row+clamp(x0+i, wd)]
					}
				}
				visit(block[:16], 2)
			}
		}
	case 3:
		d, h, wd := dims[0], dims[1], dims[2]
		for z0 := 0; z0 < d; z0 += 4 {
			for y0 := 0; y0 < h; y0 += 4 {
				for x0 := 0; x0 < wd; x0 += 4 {
					for k := 0; k < 4; k++ {
						zi := clamp(z0+k, d) * h
						for j := 0; j < 4; j++ {
							row := (zi + clamp(y0+j, h)) * wd
							for i := 0; i < 4; i++ {
								block[16*k+4*j+i] = data[row+clamp(x0+i, wd)]
							}
						}
					}
					visit(block[:64], 3)
				}
			}
		}
	case 4:
		vol := dims[1] * dims[2] * dims[3]
		for s := 0; s < dims[0]; s++ {
			forEachBlock(data[s*vol:(s+1)*vol], dims[1:], block, visit)
		}
	}
}

// forEachBlockScatter mirrors forEachBlock for decompression: visit fills
// the block, and the in-range portion is scattered back into out.
func forEachBlockScatter[F ieee.Float](out []F, dims []int, block []F, visit func(blk []F, bdims int) bool) {
	switch len(dims) {
	case 1:
		n := dims[0]
		for x0 := 0; x0 < n; x0 += 4 {
			if !visit(block[:4], 1) {
				return
			}
			for i := 0; i < 4 && x0+i < n; i++ {
				out[x0+i] = block[i]
			}
		}
	case 2:
		h, wd := dims[0], dims[1]
		for y0 := 0; y0 < h; y0 += 4 {
			for x0 := 0; x0 < wd; x0 += 4 {
				if !visit(block[:16], 2) {
					return
				}
				for j := 0; j < 4 && y0+j < h; j++ {
					row := (y0 + j) * wd
					for i := 0; i < 4 && x0+i < wd; i++ {
						out[row+x0+i] = block[4*j+i]
					}
				}
			}
		}
	case 3:
		d, h, wd := dims[0], dims[1], dims[2]
		for z0 := 0; z0 < d; z0 += 4 {
			for y0 := 0; y0 < h; y0 += 4 {
				for x0 := 0; x0 < wd; x0 += 4 {
					if !visit(block[:64], 3) {
						return
					}
					for k := 0; k < 4 && z0+k < d; k++ {
						for j := 0; j < 4 && y0+j < h; j++ {
							row := ((z0+k)*h + y0 + j) * wd
							for i := 0; i < 4 && x0+i < wd; i++ {
								out[row+x0+i] = block[16*k+4*j+i]
							}
						}
					}
				}
			}
		}
	case 4:
		vol := dims[1] * dims[2] * dims[3]
		for s := 0; s < dims[0]; s++ {
			done := false
			forEachBlockScatter(out[s*vol:(s+1)*vol], dims[1:], block, func(blk []F, bd int) bool {
				ok := visit(blk, bd)
				if !ok {
					done = true
				}
				return ok
			})
			if done {
				return
			}
		}
	}
}
