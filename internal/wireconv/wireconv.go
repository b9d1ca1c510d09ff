// Package wireconv converts between float slices and their little-endian
// wire encoding. The wire format is fixed (SZx streams, the szxd service,
// and the SZXB batch framing are all little-endian), so on little-endian
// hosts — every platform this repo targets in practice — the conversion is
// a single memcpy through an unsafe reinterpretation, the same technique
// internal/core uses for same-width float views. Big-endian hosts fall
// back to portable per-value encoding.
//
// Per-value byte shuffling is pure overhead on small-payload service
// traffic: a 64-array batch of 16 KiB floats crosses the float/byte
// boundary four times (client stage, server unpack, server restage, client
// decode), and at memcpy speed those four crossings stop showing up in the
// per-array cost.
package wireconv

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLE reports whether the host's native byte order is the wire's
// little-endian order. A var rather than a const so tests can exercise the
// portable path on any hardware.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Float is the element types the wire carries.
type Float interface{ ~float32 | ~float64 }

// raw views vals' storage as bytes; the view aliases vals.
func raw[T Float](vals []T) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*Size[T]())
}

// Append appends vals' wire bytes to dst.
func Append[T Float](dst []byte, vals []T) []byte {
	if hostLE {
		return append(dst, raw(vals)...)
	}
	for _, v := range vals {
		if Size[T]() == 4 {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v)))
		}
	}
	return dst
}

// Put writes vals' wire bytes into dst, which must hold them all.
func Put[T Float](dst []byte, vals []T) {
	if hostLE {
		copy(dst, raw(vals))
		return
	}
	Append(dst[:0], vals) // fits in place: dst holds them all
}

// Decode fills dst from its wire bytes; b must hold at least len(dst)
// values.
func Decode[T Float](dst []T, b []byte) {
	if hostLE {
		copy(raw(dst), b)
		return
	}
	for i := range dst {
		if Size[T]() == 4 {
			dst[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		} else {
			dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
}

// Size is the wire width of one T, in bytes.
func Size[T Float]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// Values decodes b's wire values into dst's reused capacity and returns
// the resized slice.
func Values[T Float](dst []T, b []byte) []T {
	n := len(b) / Size[T]()
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	Decode(dst, b)
	return dst
}

// ValuesView returns b's wire values: b's own memory when the host is
// little-endian and b is aligned for T, a decoded copy otherwise. A view
// aliases b, so b must not change while the values are in use. A trailing
// partial value is ignored.
func ValuesView[T Float](b []byte) []T {
	n := len(b) / Size[T]()
	p := unsafe.SliceData(b)
	if hostLE && n > 0 && uintptr(unsafe.Pointer(p))%unsafe.Alignof(T(0)) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(p)), n)
	}
	return Values[T](nil, b)
}

// BytesView returns vals' wire bytes: vals' own memory on little-endian
// hosts, an encoded copy otherwise. A view aliases vals, so vals must not
// change while the bytes are in use.
func BytesView[T Float](vals []T) []byte {
	if hostLE {
		return raw(vals)
	}
	return Append(nil, vals)
}

// AppendF32 appends vals' wire bytes to dst.
func AppendF32(dst []byte, vals []float32) []byte { return Append(dst, vals) }

// F32 decodes b's wire float32s into dst's reused capacity and returns the
// resized slice.
func F32(dst []float32, b []byte) []float32 { return Values(dst, b) }
