package zfp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ieee"
)

// float is a test's element type: the table tests below run over float32
// and float64 through one generic helper each.
type float interface{ float32 | float64 }

// compressAs and decompressAs reach the exported entry points of F's width.
func compressAs[F float](data []F, dims []int, tol float64) ([]byte, error) {
	if d, ok := any(data).([]float32); ok {
		return Compress(d, dims, tol)
	}
	return CompressFloat64(any(data).([]float64), dims, tol)
}

func decompressAs[F float](comp []byte) (out []F, dims []int, err error) {
	switch p := any(&out).(type) {
	case *[]float32:
		*p, dims, err = Decompress(comp)
	case *[]float64:
		*p, dims, err = DecompressFloat64(comp)
	}
	return out, dims, err
}

// as converts generated values to F.
func as[F float](src []float64) []F {
	out := make([]F, len(src))
	for i, v := range src {
		out[i] = F(v)
	}
	return out
}

func maxErr[F float](a, b []F) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func gen3D(d, h, w int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, d*h*w)
	i := 0
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out[i] = math.Sin(float64(x)/15)*math.Cos(float64(y)/10)*
					math.Sin(float64(z)/8)*10 + 0.01*rng.NormFloat64()
				i++
			}
		}
	}
	return out
}

// roundTrip compresses data at every tolerance and checks the decoded
// shape and the bound.
func roundTrip[F float](t *testing.T, data []F, dims []int, tols ...float64) {
	t.Helper()
	for _, tol := range tols {
		comp, err := compressAs(data, dims, tol)
		if err != nil {
			t.Fatalf("%T %v tol=%g: %v", data, dims, tol, err)
		}
		dec, got, err := decompressAs[F](comp)
		if err != nil {
			t.Fatalf("%T %v tol=%g: %v", data, dims, tol, err)
		}
		if !slices.Equal(got, dims) {
			t.Fatalf("%T %v: dims %v", data, dims, got)
		}
		if e := maxErr(data, dec); e > tol {
			t.Errorf("%T %v tol=%g: max error %g", data, dims, tol, e)
		}
	}
}

// checkLift asserts that the lifting transform loses only low-order bits:
// inverse(forward(x)) must match x within a few units.
func checkLift[I coeff](t *testing.T, trials int, rnd func() I) {
	for trial := 0; trial < trials; trial++ {
		var p, q [4]I
		for i := range p {
			p[i] = rnd()
			q[i] = p[i]
		}
		fwdLift(q[:], 0, 1)
		invLift(q[:], 0, 1)
		for i := range p {
			d := int64(p[i]) - int64(q[i])
			if d < -4 || d > 4 {
				t.Fatalf("trial %d: lift not near-invertible: %v vs %v", trial, p, q)
			}
		}
	}
}

func TestLiftRoundTripApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkLift(t, 1000, func() int32 { return int32(rng.Intn(1<<28)) - 1<<27 })
}

func TestLift64NearInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkLift(t, 500, func() int64 { return rng.Int63n(1<<60) - 1<<59 })
}

func checkNegabinary[I coeff, U ieee.Word](t *testing.T, cases ...I) {
	for _, x := range cases {
		if got := negabinary2int[I](int2negabinary[U](x)); got != x {
			t.Errorf("negabinary(%d) -> %d", x, got)
		}
	}
	f := func(x I) bool { return negabinary2int[I](int2negabinary[U](x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	checkNegabinary[int32, uint32](t, 0, 1, -1, 2, -2, 1<<30, -(1 << 30), math.MaxInt32, math.MinInt32)
}

func TestNegabinary64RoundTrip(t *testing.T) {
	checkNegabinary[int64, uint64](t, 0, 1, -1, 1<<62, -(1 << 62), math.MaxInt64, math.MinInt64)
}

func TestNegabinarySmallMagnitude(t *testing.T) {
	// Small magnitudes (either sign) must have only low-order bits set so
	// bit-plane coding truncates gracefully, at either width.
	for _, x := range []int32{-8, -1, 0, 1, 8} {
		if u := int2negabinary[uint32](x); u > 64 {
			t.Errorf("negabinary(%d) = %#x has high bits", x, u)
		}
		if u := int2negabinary[uint64](int64(x)); u > 64 {
			t.Errorf("negabinary64(%d) = %#x has high bits", x, u)
		}
	}
}

func TestPermProperties(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		p := perm(dims)
		size := 1 << uint(2*dims)
		if len(p) != size {
			t.Fatalf("dims %d: perm len %d", dims, len(p))
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				t.Fatalf("dims %d: invalid perm %v", dims, p)
			}
			seen[v] = true
		}
		// Total degree must be non-decreasing.
		deg := func(i int) int {
			d := 0
			for k := 0; k < dims; k++ {
				d += (i >> uint(2*k)) & 3
			}
			return d
		}
		for i := 1; i < size; i++ {
			if deg(p[i]) < deg(p[i-1]) {
				t.Fatalf("dims %d: perm not degree-sorted", dims)
			}
		}
		// DC coefficient first.
		if p[0] != 0 {
			t.Fatalf("dims %d: DC not first", dims)
		}
	}
}

func TestRoundTrip1D(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = math.Sin(float64(i) / 25)
	}
	roundTrip(t, as[float32](data), []int{1000}, 1e-1, 1e-3, 1e-6)
	roundTrip(t, data, []int{1000}, 1e-1, 1e-3, 1e-6)
}

func TestRoundTrip2D(t *testing.T) {
	const h, w = 67, 93 // deliberately not multiples of 4
	data := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			data[y*w+x] = math.Sin(float64(x)/9)*math.Cos(float64(y)/7)*5 + 100
		}
	}
	roundTrip(t, as[float32](data), []int{h, w}, 1e-2, 1e-4)
	roundTrip(t, data, []int{h, w}, 1e-2, 1e-4)
}

func TestRoundTrip3D(t *testing.T) {
	data := gen3D(22, 30, 41, 2)
	roundTrip(t, as[float32](data), []int{22, 30, 41}, 1e-1, 1e-3)
	roundTrip(t, data, []int{22, 30, 41}, 1e-1, 1e-3)
}

func TestRoundTrip4D(t *testing.T) {
	data := gen3D(8, 10, 12, 3)
	roundTrip(t, as[float32](data), []int{2, 4, 10, 12}, 1e-3)
	roundTrip(t, data, []int{2, 4, 10, 12}, 1e-3)
}

// Double precision honors bounds far below the float32 quantization floor.
func TestRoundTrip64(t *testing.T) {
	roundTrip(t, gen3D(17, 22, 30, 1), []int{17, 22, 30}, 1e-1, 1e-4, 1e-9)
}

func TestRoundTrip64Dims(t *testing.T) {
	data := gen3D(2, 9, 13, 2)
	for _, dims := range [][]int{{234}, {18, 13}, {2, 9, 13}, {2, 1, 9, 13}} {
		roundTrip(t, as[float32](data), dims, 1e-3)
		roundTrip(t, data, dims, 1e-6)
	}
}

func TestTightBound64(t *testing.T) {
	roundTrip(t, gen3D(8, 8, 8, 5), []int{8, 8, 8}, 1e-12)
}

func checkRatio[F float](t *testing.T, data []F, dims []int, tol, min float64) {
	comp, err := compressAs(data, dims, tol)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(ieee.Width[F]()*len(data)) / float64(len(comp))
	if cr < min {
		t.Errorf("%T: ZFP ratio %.2f too low for smooth 3D data", data, cr)
	}
}

func TestCompressesSmoothdata(t *testing.T) {
	data := gen3D(32, 32, 32, 4)
	// ~REL 1e-3 of range 20.
	checkRatio(t, as[float32](data), []int{32, 32, 32}, 2e-2, 4)
	checkRatio(t, data, []int{32, 32, 32}, 2e-2, 4)
}

// checkZeros asserts that an all-zero field costs ~1 bit per block and
// decodes to zeros.
func checkZeros[F float](t *testing.T, dims []int, tol float64) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	comp, err := compressAs(make([]F, n), dims, tol)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > 128 {
		t.Errorf("%v zero data stream %d bytes", dims, len(comp))
	}
	dec, _, err := decompressAs[F](comp)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if v != 0 {
			t.Fatalf("%v dec[%d] = %v", dims, i, v)
		}
	}
}

func TestAllZeroBlocks(t *testing.T) {
	// 64 insignificant blocks -> tiny stream.
	checkZeros[float32](t, []int{16, 16, 16}, 1e-4)
	checkZeros[float64](t, []int{16, 16, 16}, 1e-4)
}

func TestZeros64(t *testing.T) {
	checkZeros[float32](t, []int{1024}, 1e-6)
	checkZeros[float64](t, []int{1024}, 1e-6)
}

func checkInvalidArgs[F float](t *testing.T) {
	data := []F{1, 2, 3, 4}
	if _, err := compressAs(data, []int{4}, 0); err != ErrErrBound {
		t.Errorf("%T tol=0: %v", data, err)
	}
	if _, err := compressAs(data, []int{5}, 1e-3); err != ErrDims {
		t.Errorf("%T bad dims: %v", data, err)
	}
	if _, err := compressAs(data, []int{}, 1e-3); err != ErrDims {
		t.Errorf("%T no dims: %v", data, err)
	}
}

func TestInvalidArgs(t *testing.T) {
	checkInvalidArgs[float32](t)
	checkInvalidArgs[float64](t)
}

// checkCorrupt asserts that a stream cut to short bytes is rejected and
// that flipping every step-th byte never panics.
func checkCorrupt[F float](t *testing.T, comp []byte, short, step int, flip byte) {
	if _, _, err := decompressAs[F](comp[:short]); err == nil {
		t.Errorf("%d-byte stream accepted", short)
	}
	if _, _, err := decompressAs[F]([]byte("AAAABBBBCCCCDDDD")); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	for i := 0; i < len(comp); i += step {
		c := append([]byte(nil), comp...)
		c[i] ^= flip
		_, _, _ = decompressAs[F](c) // must not panic
	}
}

func TestCorrupt(t *testing.T) {
	comp, err := Compress(as[float32](gen3D(10, 10, 10, 5)), []int{10, 10, 10}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrupt[float32](t, comp, 8, 19, 0x3C)
}

func TestCorrupt64(t *testing.T) {
	data := gen3D(4, 8, 8, 6)
	comp, err := CompressFloat64(data, []int{4, 8, 8}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrupt[float64](t, comp, 6, 29, 0xF0)
	// A stream of one width is not a stream of the other.
	c32, err := Compress(as[float32](data), []int{4, 8, 8}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecompressFloat64(c32); err != ErrBadMagic {
		t.Errorf("float32 stream as float64: %v", err)
	}
	if _, _, err := Decompress(comp); err != ErrBadMagic {
		t.Errorf("float64 stream as float32: %v", err)
	}
}

// Property: the fixed-accuracy bound holds across magnitudes and bounds,
// down to the float32 precision floor. Like the original ZFP, tolerances
// below the int32 quantization ulp (~maxAbs * 2^-20 after transform slack)
// cannot be honored; the effective bound is the max of the two.
func TestAccuracyProperty(t *testing.T) {
	f := func(seed int64, eExp uint8, scalePow int8) bool {
		tol := math.Pow(10, -float64(eExp%7))
		scale := math.Pow(2, float64(scalePow%30))
		rng := rand.New(rand.NewSource(seed))
		const h, w = 20, 20
		data := make([]float32, h*w)
		maxAbs := 0.0
		for i := range data {
			data[i] = float32(scale * (math.Sin(float64(i)/17) + 0.1*rng.NormFloat64()))
			if a := math.Abs(float64(data[i])); a > maxAbs {
				maxAbs = a
			}
		}
		comp, err := Compress(data, []int{h, w}, tol)
		if err != nil {
			return false
		}
		dec, _, err := Decompress(comp)
		if err != nil {
			return false
		}
		allowed := tol
		if floor := maxAbs * math.Pow(2, -20); floor > allowed {
			allowed = floor
		}
		return maxErr(data, dec) <= allowed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: random finite data of random shapes round-trips within bound.
func TestShapeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int, 1+rng.Intn(3))
		n := 1
		for i := range dims {
			dims[i] = 1 + rng.Intn(13)
			n *= dims[i]
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 100)
		}
		comp, err := Compress(data, dims, 1e-2)
		if err != nil {
			return false
		}
		dec, _, err := Decompress(comp)
		if err != nil {
			return false
		}
		return maxErr(data, dec) <= 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
