package sz

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ieee"
)

// float is a test's element type: the table tests below run over float32
// and float64 through one generic helper.
type float interface{ float32 | float64 }

// compressAs and decompressAs reach the exported entry points of F's width.
func compressAs[F float](data []F, dims []int, e float64, opts Options) ([]byte, error) {
	if d, ok := any(data).([]float32); ok {
		return Compress(d, dims, e, opts)
	}
	return CompressFloat64(any(data).([]float64), dims, e, opts)
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

func gen2D(h, w int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = math.Sin(float64(x)/20)*math.Cos(float64(y)/15)*10 +
				0.05*rng.NormFloat64()
		}
	}
	return out
}

func gen3D(d, h, w int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, d*h*w)
	i := 0
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out[i] = math.Sin(float64(x+y+z)/25)*5 + 0.02*rng.NormFloat64()
				i++
			}
		}
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

// roundTrip compresses data under bound e, checks the decoded shape and
// the bound, and returns the compression ratio.
func roundTrip[F float](t *testing.T, data []F, dims []int, e float64, opts Options) float64 {
	t.Helper()
	comp, err := compressAs(data, dims, e, opts)
	if err != nil {
		t.Fatalf("%T %v e=%g: %v", data, dims, e, err)
	}
	dec, got, err := decompressAs[F](comp)
	if err != nil {
		t.Fatalf("%T %v e=%g: %v", data, dims, e, err)
	}
	if !slices.Equal(got, dims) {
		t.Fatalf("%T %v: dims %v", data, dims, got)
	}
	if m := maxErr(data, dec); m > e {
		t.Errorf("%T %v e=%g: max error %g", data, dims, e, m)
	}
	return float64(ieee.Width[F]()*len(data)) / float64(len(comp))
}

func TestRoundTrip1D(t *testing.T) {
	data := make([]float64, 5000)
	for i := range data {
		data[i] = math.Sin(float64(i) / 30)
	}
	for _, e := range []float64{1e-2, 1e-4, 1e-6} {
		cr32 := roundTrip(t, as[float32](data), []int{len(data)}, e, Options{})
		cr64 := roundTrip(t, data, []int{len(data)}, e, Options{})
		if e >= 1e-4 && (cr32 <= 1 || cr64 <= 1) {
			t.Errorf("e=%g: no compression (ratios %.2f, %.2f)", e, cr32, cr64)
		}
	}
}

func TestRoundTrip2D(t *testing.T) {
	data := gen2D(100, 120, 1)
	for _, e := range []float64{1e-2, 1e-3} {
		roundTrip(t, as[float32](data), []int{100, 120}, e, Options{})
		roundTrip(t, data, []int{100, 120}, e, Options{})
	}
}

func TestRoundTrip3D(t *testing.T) {
	data := gen3D(20, 30, 40, 2)
	roundTrip(t, as[float32](data), []int{20, 30, 40}, 1e-3, Options{})
	roundTrip(t, data, []int{20, 30, 40}, 1e-3, Options{})
}

func TestRoundTrip4D(t *testing.T) {
	data := gen3D(6, 10, 12, 3) // reuse as 4D [2,3,10,12]
	roundTrip(t, as[float32](data), []int{2, 3, 10, 12}, 1e-3, Options{})
	roundTrip(t, data, []int{2, 3, 10, 12}, 1e-3, Options{})
}

// Double precision honors bounds far below float32's resolution.
func TestRoundTrip64(t *testing.T) {
	data := gen3D(12, 20, 25, 1)
	for _, e := range []float64{1e-2, 1e-6, 1e-10} {
		roundTrip(t, data, []int{12, 20, 25}, e, Options{})
	}
}

func TestRoundTrip64AllDims(t *testing.T) {
	data := gen3D(2, 10, 12, 2)
	for _, dims := range [][]int{{240}, {20, 12}, {2, 10, 12}, {2, 2, 5, 12}} {
		roundTrip(t, as[float32](data), dims, 1e-5, Options{})
		roundTrip(t, data, dims, 1e-5, Options{})
	}
}

func TestHigherRatioThanNoCompression(t *testing.T) {
	// Smooth data + modest bound should compress far below 4 B/value and
	// beat a blockwise scheme's typical ratio (the paper's Table 3 SZ > SZx).
	// Value range is ~20, so 2e-2 corresponds to the paper's REL 1e-3.
	if cr := roundTrip(t, as[float32](gen2D(200, 200, 4)), []int{200, 200}, 2e-2, Options{}); cr < 8 {
		t.Errorf("SZ ratio %.1f unexpectedly low for smooth data", cr)
	}
}

func TestCompress64CompressesSmooth(t *testing.T) {
	if cr := roundTrip(t, gen3D(16, 24, 24, 3), []int{16, 24, 24}, 1e-2, Options{}); cr < 10 {
		t.Errorf("ratio %.1f low for smooth doubles", cr)
	}
}

func TestRoughDataStillBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
	}
	for _, e := range []float64{1e-1, 1e-5} {
		roundTrip(t, as[float32](data), []int{4096}, e, Options{})
		roundTrip(t, data, []int{4096}, e, Options{})
	}
}

func TestInvalidArgs(t *testing.T) {
	data := []float32{1, 2, 3}
	if _, err := Compress(data, []int{3}, 0, Options{}); err != ErrErrBound {
		t.Errorf("e=0: %v", err)
	}
	if _, err := Compress(data, []int{4}, 1e-3, Options{}); err != ErrDims {
		t.Errorf("bad dims: %v", err)
	}
	if _, err := Compress(data, []int{1, 1, 1, 1, 3}, 1e-3, Options{}); err != ErrDims {
		t.Errorf("5D: %v", err)
	}
	if _, err := Compress(data, nil, 1e-3, Options{}); err != ErrDims {
		t.Errorf("nil dims: %v", err)
	}
	if _, err := Compress(data, []int{3}, 1e-3, Options{Capacity: 3}); err == nil {
		t.Error("odd capacity accepted")
	}
}

// A bad capacity or an undefined predictor is the caller's option error,
// and the regression predictors are float32-only.
func TestOptionErrors(t *testing.T) {
	data := []float32{1, 2, 3}
	data64 := []float64{1, 2, 3}
	for _, c := range []struct {
		name string
		opts Options
		f64  bool
	}{
		{"odd capacity", Options{Capacity: 3}, false},
		{"odd capacity f64", Options{Capacity: 3}, true},
		{"capacity too large", Options{Capacity: 1<<22 + 2}, false},
		{"undefined predictor", Options{Predictor: 7}, false},
		{"undefined predictor f64", Options{Predictor: 7}, true},
		{"regression f64", Options{Predictor: PredRegression}, true},
		{"auto f64", Options{Predictor: PredAuto}, true},
	} {
		var err error
		if c.f64 {
			_, err = CompressFloat64(data64, []int{3}, 1e-3, c.opts)
		} else {
			_, err = Compress(data, []int{3}, 1e-3, c.opts)
		}
		if err != ErrOptions {
			t.Errorf("%s: got %v, want ErrOptions", c.name, err)
		}
	}
}

// checkCorrupt asserts that a stream cut to short bytes is rejected and
// that flipping every step-th byte never panics.
func checkCorrupt[F float](t *testing.T, comp []byte, short, step int) {
	if _, _, err := decompressAs[F](comp[:short]); err == nil {
		t.Errorf("%d-byte stream accepted", short)
	}
	if _, _, err := decompressAs[F]([]byte("XXXXYYYY")); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	for i := 0; i < len(comp); i += step {
		c := append([]byte(nil), comp...)
		c[i] ^= 0xFF
		_, _, _ = decompressAs[F](c) // must not panic
	}
}

func TestCorrupt(t *testing.T) {
	comp, err := Compress(as[float32](gen2D(40, 40, 6)), []int{40, 40}, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkCorrupt[float32](t, comp, 10, 17)
}

func TestCorrupt64(t *testing.T) {
	data := gen3D(4, 8, 8, 4)
	comp, err := CompressFloat64(data, []int{4, 8, 8}, 1e-4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkCorrupt[float64](t, comp, 10, 23)
	// A stream of one width is not a stream of the other.
	c32, err := Compress(as[float32](data), []int{4, 8, 8}, 1e-4, Options{})
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

// forgeInfBound returns comp with its envelope's error bound (bytes 6..14)
// forged to +Inf.
func forgeInfBound(comp []byte) []byte {
	c := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(c[6:], math.Float64bits(math.Inf(1)))
	return c
}

// TestForgedInfBound: a stream whose bound is forged to +Inf is corrupt, at
// both widths. Without the check it decodes to NaN values with a nil error.
func TestForgedInfBound(t *testing.T) {
	data := gen2D(20, 20, 1)
	c32, err := Compress(as[float32](data), []int{20, 20}, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(forgeInfBound(c32)); err != ErrCorrupt {
		t.Errorf("float32 stream with a +Inf bound: got %v, want ErrCorrupt", err)
	}
	c64, err := CompressFloat64(data, []int{20, 20}, 1e-6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecompressFloat64(forgeInfBound(c64)); err != ErrCorrupt {
		t.Errorf("float64 stream with a +Inf bound: got %v, want ErrCorrupt", err)
	}
}

func TestSmallCapacity(t *testing.T) {
	data := gen2D(50, 50, 7)
	roundTrip(t, as[float32](data), []int{50, 50}, 1e-4, Options{Capacity: 256})
	roundTrip(t, data, []int{50, 50}, 1e-4, Options{Capacity: 256})
}

// Property: the error bound holds for arbitrary data and bounds.
func TestErrorBoundProperty(t *testing.T) {
	f := func(seed int64, eExp uint8) bool {
		e := math.Pow(10, -float64(eExp%8))
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(100*math.Sin(float64(i)/10) + rng.NormFloat64())
		}
		comp, err := Compress(data, []int{n}, e, Options{})
		if err != nil {
			return false
		}
		dec, _, err := Decompress(comp)
		if err != nil {
			return false
		}
		return maxErr(data, dec) <= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConstantField(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 3.25
	}
	for _, cr := range []float64{
		roundTrip(t, as[float32](data), []int{10, 100}, 1e-3, Options{}),
		roundTrip(t, data, []int{10, 100}, 1e-3, Options{}),
	} {
		if cr < 30 {
			t.Errorf("constant field ratio %.1f too low", cr)
		}
	}
}
