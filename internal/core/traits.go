package core

import (
	"slices"
	"unsafe"

	"repro/internal/ieee"
	"repro/internal/kernels"
)

// The codec core is written once, generically, against the trait layer in
// internal/ieee: a Float element type T paired with the Word B of the same
// width that carries its IEEE-754 bit pattern. The two legal pairings —
// (float32, uint32) and (float64, uint64) — are instantiated by the exported
// wrappers, so every internal function can assume the widths match.

// Float constrains the element types the codec supports.
type Float = ieee.Float

// Word carries a Float's IEEE-754 bit pattern at matching width.
type Word = ieee.Word

// dtypeOf returns the stream element tag for T.
func dtypeOf[T Float]() DType {
	if ieee.Width[T]() == 4 {
		return TypeFloat32
	}
	return TypeFloat64
}

// blockStats returns the block representative μ = (min+max)/2 and the
// variation radius r = max(max-μ, μ-min), computed exactly in float64
// (differences of float32 values are exact in float64, and for float64 the
// conversions are identities). The μ formula differs per width to preserve
// the historical bit-exact streams: float32 rounds the float64 midpoint,
// float64 halves before adding so the midpoint cannot overflow.
//
// noNaN reports that the block holds no NaN: NaN compares false against
// min/max and would otherwise slip into a "constant" block unnoticed, so
// the constant path may only be taken when noNaN holds (NaN blocks fall
// through to the nonconstant path, whose guard escalates them to lossless).
func blockStats[T Float](blk []T) (mu T, radius float64, noNaN bool) {
	mn, mx, noNaN := statsKernel(blk)
	mu, radius = blockMid(mn, mx)
	return mu, radius, noNaN
}

// statsKernel is the dispatched Stats kernel (generic or vector, selected
// at init) for T: blk's running min and max under NaN-skipping compares,
// seeded with blk[0] (so both are NaN when blk[0] is), and the no-NaN
// verdict.
func statsKernel[T Float](blk []T) (mn, mx T, noNaN bool) {
	if ieee.Width[T]() == 4 {
		m0, m1, nn := kernels.K32.Stats(asF32(blk))
		return T(m0), T(m1), nn
	}
	m0, m1, nn := kernels.K64.Stats(asF64(blk))
	return T(m0), T(m1), nn
}

// blockMid is blockStats' μ and radius from the block's min and max.
func blockMid[T Float](mn, mx T) (mu T, radius float64) {
	if ieee.Width[T]() == 4 {
		mu = T(float32((float64(mn) + float64(mx)) / 2))
	} else {
		mu = mn/2 + mx/2
	}
	a := float64(mx) - float64(mu)
	if b := float64(mu) - float64(mn); b > a {
		a = b
	}
	return mu, a
}

// asF32 / asF64 reinterpret a []T as the concrete element slice. They must
// only be called after a width check; the underlying memory layout is
// identical, so the views alias the input (capacity preserved for
// append-style reuse).
func asF32[T Float](s []T) []float32 {
	if cap(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(s))), cap(s))[:len(s)]
}

func asF64[T Float](s []T) []float64 {
	if cap(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), cap(s))[:len(s)]
}

// asT is the inverse view: a concrete element slice as []T (same width).
func asT[T Float, U Float](s []U) []T {
	if cap(s) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(s))), cap(s))[:len(s)]
}

// appendZeros extends dst by n zero bytes without a temporary allocation,
// clearing any stale bytes exposed from a reused capacity.
func appendZeros(dst []byte, n int) []byte {
	dst = slices.Grow(dst, n)
	dst = dst[:len(dst)+n]
	clear(dst[len(dst)-n:])
	return dst
}
