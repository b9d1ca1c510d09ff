package wireconv

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refF32 is the portable reference encoding every path must match.
func refF32(vals []float32) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

func refF64(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// TestBothPaths runs the whole API against the reference encoding on the
// native path and again with the portable fallback forced, so the two
// implementations can never drift apart regardless of test hardware.
func TestBothPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f32s := make([]float32, 1023)
	f64s := make([]float64, 1023)
	for i := range f32s {
		f32s[i] = float32(rng.NormFloat64())
		f64s[i] = rng.NormFloat64()
	}
	// NaN and infinities must survive bit-exactly too.
	f32s[0] = float32(math.NaN())
	f32s[1] = float32(math.Inf(-1))
	f64s[0] = math.NaN()
	f64s[1] = math.Inf(1)

	saved := hostLE
	defer func() { hostLE = saved }()
	for _, le := range []bool{saved, !saved} {
		hostLE = le
		for _, n := range []int{0, 1, 7, 1023} {
			want32, want64 := refF32(f32s[:n]), refF64(f64s[:n])

			if got := Append([]byte("pre"), f32s[:n]); !bytes.Equal(got, append([]byte("pre"), want32...)) {
				t.Fatalf("hostLE=%v n=%d: Append[float32] mismatch", le, n)
			}
			if got := Append(nil, f64s[:n]); !bytes.Equal(got, want64) {
				t.Fatalf("hostLE=%v n=%d: Append[float64] mismatch", le, n)
			}

			put32 := make([]byte, 4*n)
			Put(put32, f32s[:n])
			if !bytes.Equal(put32, want32) {
				t.Fatalf("hostLE=%v n=%d: Put[float32] mismatch", le, n)
			}
			put64 := make([]byte, 8*n)
			Put(put64, f64s[:n])
			if !bytes.Equal(put64, want64) {
				t.Fatalf("hostLE=%v n=%d: Put[float64] mismatch", le, n)
			}

			back32 := Values[float32](nil, want32)
			back64 := Values[float64](nil, want64)
			if len(back32) != n || len(back64) != n {
				t.Fatalf("hostLE=%v n=%d: decode lengths %d/%d", le, n, len(back32), len(back64))
			}
			for i := 0; i < n; i++ {
				if math.Float32bits(back32[i]) != math.Float32bits(f32s[i]) {
					t.Fatalf("hostLE=%v: Values[float32][%d] bits differ", le, i)
				}
				if math.Float64bits(back64[i]) != math.Float64bits(f64s[i]) {
					t.Fatalf("hostLE=%v: Values[float64][%d] bits differ", le, i)
				}
			}
		}
	}
}

// TestViews pins both views: on a little-endian host they alias the
// buffer they were given, and a buffer misaligned for T or a big-endian
// host (hostLE=false) gets a converted copy holding the same values.
func TestViews(t *testing.T) {
	f32s := []float32{1.5, float32(math.NaN()), float32(math.Inf(-1)), -0.0, 3}
	f64s := []float64{1.5, math.NaN(), math.Inf(1), -2}
	viewCase(t, f32s, refF32(f32s))
	viewCase(t, f64s, refF64(f64s))
}

func viewCase[T Float](t *testing.T, vals []T, wire []byte) {
	saved := hostLE
	defer func() { hostLE = saved }()
	same := func(got []T) bool {
		return bytes.Equal(Append(nil, got), wire)
	}
	aliasV := func(v []T, b []byte) bool {
		return unsafe.Pointer(unsafe.SliceData(v)) == unsafe.Pointer(unsafe.SliceData(b))
	}
	if saved {
		if v := ValuesView[T](wire); !aliasV(v, wire) || !same(v) {
			t.Fatalf("%T: ValuesView does not alias an aligned buffer", vals[0])
		}
		if b := BytesView(vals); !aliasV(vals, b) || !bytes.Equal(b, wire) {
			t.Fatalf("%T: BytesView does not alias the values", vals[0])
		}
	}
	odd := make([]byte, len(wire)+1)[1:]
	copy(odd, wire)
	if v := ValuesView[T](odd); aliasV(v, odd) || !same(v) {
		t.Fatalf("%T: ValuesView of a misaligned buffer: aliased %v, values %v", vals[0], aliasV(v, odd), v)
	}
	hostLE = false
	if v := ValuesView[T](wire); aliasV(v, wire) || !same(v) {
		t.Fatalf("%T: ValuesView on a big-endian host: aliased %v, values %v", vals[0], aliasV(v, wire), v)
	}
	if b := BytesView(vals); aliasV(vals, b) || !bytes.Equal(b, wire) {
		t.Fatalf("%T: BytesView on a big-endian host did not copy the wire bytes", vals[0])
	}
}

// TestF32ReusesCapacity pins the pooling contract: a dst with enough
// capacity is reused, not reallocated.
func TestF32ReusesCapacity(t *testing.T) {
	dst := make([]float32, 0, 64)
	b := refF32([]float32{1, 2, 3})
	got := F32(dst, b)
	if &got[0] != &dst[:1][0] {
		t.Fatal("F32 reallocated despite sufficient capacity")
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("F32 decoded %v", got)
	}
}

func BenchmarkAppendF32_16K(b *testing.B) {
	vals := make([]float32, 4096)
	dst := make([]byte, 0, 4*len(vals))
	b.SetBytes(int64(4 * len(vals)))
	for i := 0; i < b.N; i++ {
		dst = Append(dst[:0], vals)
	}
}

func BenchmarkDecodeF32_16K(b *testing.B) {
	vals := make([]float32, 4096)
	raw := Append(nil, vals)
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		Decode(vals, raw)
	}
}
