package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genSmooth32 builds a smooth-ish signal resembling scientific field data.
func genSmooth32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := rng.Float64()
	for i := range out {
		v += 0.02 * (rng.Float64() - 0.5)
		out[i] = float32(math.Sin(float64(i)/50) + v)
	}
	return out
}

func genRough32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6))-3))
	}
	return out
}

func maxAbsErr32(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func maxAbsErr64(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestRoundTrip32Smooth(t *testing.T) {
	for _, e := range []float64{1e-2, 1e-3, 1e-4, 1e-6} {
		data := genSmooth32(10000, 1)
		comp, st, err := CompressFloat32Stats(data, e, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecompressFloat32(comp)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(data) {
			t.Fatalf("length mismatch %d != %d", len(dec), len(data))
		}
		if got := maxAbsErr32(data, dec); got > e {
			t.Errorf("e=%g: max error %g exceeds bound", e, got)
		}
		if st.Ratio() <= 1 {
			t.Errorf("e=%g: compression ratio %.2f not > 1", e, st.Ratio())
		}
	}
}

func TestRoundTrip32Rough(t *testing.T) {
	for _, e := range []float64{1e-1, 1e-3, 1e-7} {
		data := genRough32(5000, 2)
		comp, err := CompressFloat32(data, e, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecompressFloat32(comp)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxAbsErr32(data, dec); got > e {
			t.Errorf("e=%g: max error %g exceeds bound", e, got)
		}
	}
}

func TestRoundTrip64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 8000)
	v := 0.0
	for i := range data {
		v += 0.1 * (rng.Float64() - 0.5)
		data[i] = math.Cos(float64(i)/40)*3 + v
	}
	for _, e := range []float64{1e-2, 1e-5, 1e-9, 1e-13} {
		comp, err := CompressFloat64(data, e, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecompressFloat64(comp)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxAbsErr64(data, dec); got > e {
			t.Errorf("e=%g: max error %g exceeds bound", e, got)
		}
	}
}

func TestConstantData(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = 42.5
	}
	comp, st, err := CompressFloat32Stats(data, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ConstantBlocks != st.Blocks {
		t.Errorf("want all constant blocks, got %d/%d", st.ConstantBlocks, st.Blocks)
	}
	if st.Ratio() < 20 {
		t.Errorf("constant data ratio %.1f too low", st.Ratio())
	}
	dec, err := DecompressFloat32(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if v != 42.5 {
			t.Fatalf("dec[%d] = %v", i, v)
		}
	}
}

func TestEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 127, 128, 129} {
		data := genSmooth32(n, int64(n))
		comp, err := CompressFloat32(data, 1e-4, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dec, err := DecompressFloat32(comp)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(dec) != n {
			t.Fatalf("n=%d: got %d values", n, len(dec))
		}
		if n > 0 && maxAbsErr32(data, dec) > 1e-4 {
			t.Fatalf("n=%d: bound violated", n)
		}
	}
}

func TestBlockSizes(t *testing.T) {
	data := genSmooth32(5000, 7)
	for _, bs := range []int{1, 2, 8, 16, 32, 64, 128, 224, 256, 4096} {
		comp, err := CompressFloat32(data, 1e-3, Options{BlockSize: bs})
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		dec, err := DecompressFloat32(comp)
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		if maxAbsErr32(data, dec) > 1e-3 {
			t.Fatalf("bs=%d: bound violated", bs)
		}
	}
}

func TestInvalidArgs(t *testing.T) {
	data := genSmooth32(10, 1)
	if _, err := CompressFloat32(data, 0, Options{}); err != ErrErrBound {
		t.Errorf("e=0: got %v", err)
	}
	if _, err := CompressFloat32(data, -1, Options{}); err != ErrErrBound {
		t.Errorf("e<0: got %v", err)
	}
	if _, err := CompressFloat32(data, math.Inf(1), Options{}); err != ErrErrBound {
		t.Errorf("e=inf: got %v", err)
	}
	if _, err := CompressFloat32(data, math.NaN(), Options{}); err != ErrErrBound {
		t.Errorf("e=nan: got %v", err)
	}
	if _, err := CompressFloat32(data, 1e-3, Options{BlockSize: -1}); err != ErrBlockSize {
		t.Errorf("bs=-1: got %v", err)
	}
	if _, err := CompressFloat32(data, 1e-3, Options{BlockSize: MaxBlockSize + 1}); err != ErrBlockSize {
		t.Errorf("bs too big: got %v", err)
	}
}

func TestCorruptStreams(t *testing.T) {
	data := genSmooth32(1000, 9)
	comp, err := CompressFloat32(data, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"short":      comp[:10],
		"bad magic":  append([]byte("NOPE"), comp[4:]...),
		"truncated":  comp[:len(comp)/2],
		"no payload": comp[:headerSize+4],
	}
	for name, c := range cases {
		if _, err := DecompressFloat32(c); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Flip bytes throughout the stream: must never panic.
	for i := 0; i < len(comp); i += 13 {
		c := append([]byte(nil), comp...)
		c[i] ^= 0xFF
		_, _ = DecompressFloat32(c) // any result ok, just no panic
	}
}

// TestZsizeByteShiftIsCorrupt moves one byte of zsize from a nonconstant
// block to the constant block after it. The nonconstant block's mid is then
// one byte short, and the missing byte sits in its read slack (DecodeScan
// may load past a block's end into the next block's payload); decoding must
// still reject the block, serially and in parallel.
func TestZsizeByteShiftIsCorrupt(t *testing.T) {
	const bs, nb = 128, 17 // two 8-block chunks and a third, so decode goes parallel
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, nb*bs)
	for i := range data[:(nb-1)*bs] {
		data[i] = float32(rng.NormFloat64())
	}
	for i := (nb - 1) * bs; i < len(data); i++ {
		data[i] = 5
	}
	comp, err := CompressFloat32(data, 1e-9, Options{BlockSize: bs}) // lossless nonconstant blocks
	if err != nil {
		t.Fatal(err)
	}
	si, err := ParseStream(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !si.IsNonConstant(nb-2) || si.IsNonConstant(nb-1) {
		t.Fatal("want a nonconstant block followed by a constant block")
	}
	z := si.Zsize // aliases comp
	binary.LittleEndian.PutUint16(z[2*(nb-2):], binary.LittleEndian.Uint16(z[2*(nb-2):])-1)
	binary.LittleEndian.PutUint16(z[2*(nb-1):], binary.LittleEndian.Uint16(z[2*(nb-1):])+1)
	if _, err := DecompressFloat32(comp); err != ErrCorrupt {
		t.Errorf("serial decode: got %v, want ErrCorrupt", err)
	}
	defer func(old int) { ParallelMinBytes = old }(ParallelMinBytes)
	ParallelMinBytes = 0
	if _, err := DecompressFloat32Parallel(comp, 2); err != ErrCorrupt {
		t.Errorf("parallel decode: got %v, want ErrCorrupt", err)
	}
}

func TestWrongType(t *testing.T) {
	comp, err := CompressFloat32(genSmooth32(100, 1), 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressFloat64(comp); err != ErrWrongType {
		t.Errorf("got %v want ErrWrongType", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	comp, err := CompressFloat64(make([]float64, 300), 1e-5, Options{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeFloat64 || h.BlockSize != 64 || h.N != 300 || h.ErrBound != 1e-5 {
		t.Errorf("header mismatch: %+v", h)
	}
	if h.NumBlocks() != 5 {
		t.Errorf("NumBlocks = %d want 5", h.NumBlocks())
	}
}

// Property: for arbitrary float32 data (excluding NaN) and a random error
// bound, the round-trip error never exceeds the bound. This is the paper's
// central correctness claim (Formula 1).
func TestErrorBoundProperty32(t *testing.T) {
	f := func(seed int64, eExp uint8, rough bool) bool {
		e := math.Pow(10, -float64(eExp%10)) // 1 .. 1e-9
		var data []float32
		if rough {
			data = genRough32(777, seed)
		} else {
			data = genSmooth32(777, seed)
		}
		comp, err := CompressFloat32(data, e, Options{BlockSize: 1 + int(uint(seed)%200)})
		if err != nil {
			return false
		}
		dec, err := DecompressFloat32(comp)
		if err != nil {
			return false
		}
		return maxAbsErr32(data, dec) <= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: float64 error bound holds for adversarial magnitudes (large μ,
// tiny bound) where normalization rounding matters; the guard pass must
// absorb them.
func TestErrorBoundProperty64(t *testing.T) {
	f := func(seed int64, eExp uint8, scaleExp int8) bool {
		e := math.Pow(10, -float64(eExp%14)) // 1 .. 1e-13
		scale := math.Pow(2, float64(scaleExp%40))
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, 500)
		for i := range data {
			data[i] = scale * (1 + 1e-3*rng.NormFloat64())
		}
		comp, err := CompressFloat64(data, e, Options{})
		if err != nil {
			return false
		}
		dec, err := DecompressFloat64(comp)
		if err != nil {
			return false
		}
		return maxAbsErr64(data, dec) <= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: raw random bit patterns (including Inf/subnormals, excluding
// NaN) round-trip within bound; NaN inputs must round-trip as NaN.
func TestBitPatternProperty32(t *testing.T) {
	f := func(words []uint32) bool {
		data := make([]float32, len(words))
		hasNaN := false
		for i, w := range words {
			data[i] = math.Float32frombits(w)
			if data[i] != data[i] {
				hasNaN = true
			}
		}
		comp, err := CompressFloat32(data, 1e-5, Options{BlockSize: 16})
		if err != nil {
			return false
		}
		dec, err := DecompressFloat32(comp)
		if err != nil {
			return false
		}
		for i := range data {
			if data[i] != data[i] { // NaN: must stay NaN
				if dec[i] == dec[i] {
					return false
				}
				continue
			}
			if math.IsInf(float64(data[i]), 0) {
				if dec[i] != data[i] {
					return false
				}
				continue
			}
			if math.Abs(float64(data[i])-float64(dec[i])) > 1e-5 {
				return false
			}
		}
		_ = hasNaN
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatchesSerial32(t *testing.T) {
	data := genSmooth32(50000, 11)
	serial, err := CompressFloat32(data, 1e-4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		par, err := CompressFloat32Parallel(data, 1e-4, Options{}, w)
		if err != nil {
			t.Fatal(err)
		}
		if string(par) != string(serial) {
			t.Fatalf("workers=%d: parallel stream differs from serial", w)
		}
		decPar, err := DecompressFloat32Parallel(serial, w)
		if err != nil {
			t.Fatal(err)
		}
		decSer, err := DecompressFloat32(serial)
		if err != nil {
			t.Fatal(err)
		}
		for i := range decSer {
			if decSer[i] != decPar[i] {
				t.Fatalf("workers=%d: value %d differs", w, i)
			}
		}
	}
}

func TestParallelMatchesSerial64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 30000)
	for i := range data {
		data[i] = math.Sin(float64(i)/100) + 0.01*rng.NormFloat64()
	}
	serial, err := CompressFloat64(data, 1e-6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressParallelInto[float64](nil, data, 1e-6, Options{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(par) != string(serial) {
		t.Fatal("parallel stream differs from serial")
	}
	dec, err := DecompressParallelInto[float64](nil, par, 5)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsErr64(data, dec) > 1e-6 {
		t.Fatal("bound violated")
	}
}

func TestUnguardedStillCloseOnBenignData(t *testing.T) {
	data := genSmooth32(10000, 13)
	comp, err := CompressFloat32(data, 1e-4, Options{Unguarded: true})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat32(comp)
	if err != nil {
		t.Fatal(err)
	}
	// Unguarded mode matches the original SZx behaviour: bound respected on
	// well-scaled data (allow the analytical 2x slack for the general case).
	if got := maxAbsErr32(data, dec); got > 2e-4 {
		t.Errorf("unguarded error %g > 2x bound", got)
	}
}

func TestShiftOverheadCharacterization(t *testing.T) {
	data := genSmooth32(20000, 17)
	for _, bs := range []int{8, 16, 32, 64, 128} {
		rep, err := CharacterizeShiftOverhead32(data, 1e-4, bs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BitsSolutionC < rep.BitsSolutionB-rep.BitsSolutionB/10 {
			t.Errorf("bs=%d: solution C bits (%d) unexpectedly far below B (%d)",
				bs, rep.BitsSolutionC, rep.BitsSolutionB)
		}
		ov := rep.Overhead()
		if ov < -0.10 || ov > 0.30 {
			t.Errorf("bs=%d: overhead %.3f outside plausible range", bs, ov)
		}
	}
}

func TestPackedBitsRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		data := genSmooth32(7000, seed)
		for _, e := range []float64{1e-2, 1e-4, 1e-6} {
			comp, err := CompressFloat32PackedBits(data, e, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecompressFloat32PackedBits(comp)
			if err != nil {
				t.Fatal(err)
			}
			if got := maxAbsErr32(data, dec); got > e {
				t.Errorf("seed=%d e=%g: error %g exceeds bound", seed, e, got)
			}
			// Solution B should never be (much) larger than Solution C.
			compC, err := CompressFloat32(data, e, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(comp) > len(compC)+len(compC)/5 {
				t.Errorf("packed stream %d much larger than shifted %d", len(comp), len(compC))
			}
		}
	}
}

func TestPackedBitsCorrupt(t *testing.T) {
	data := genSmooth32(500, 21)
	comp, err := CompressFloat32PackedBits(data, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressFloat32PackedBits(comp[:8]); err == nil {
		t.Error("short stream: expected error")
	}
	for i := 0; i < len(comp); i += 11 {
		c := append([]byte(nil), comp...)
		c[i] ^= 0xA5
		_, _ = DecompressFloat32PackedBits(c) // must not panic
	}
}

func TestStatsAccounting(t *testing.T) {
	data := genSmooth32(12800, 23)
	comp, st, err := CompressFloat32Stats(data, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 100 {
		t.Errorf("Blocks = %d want 100", st.Blocks)
	}
	if st.CompressedSize != len(comp) {
		t.Errorf("CompressedSize = %d want %d", st.CompressedSize, len(comp))
	}
	if st.OriginalSize != 4*len(data) {
		t.Errorf("OriginalSize = %d", st.OriginalSize)
	}
	if st.ConstantBlocks < 0 || st.ConstantBlocks > st.Blocks {
		t.Errorf("ConstantBlocks = %d", st.ConstantBlocks)
	}
}

// Regression: a NaN hiding in an otherwise-constant block must not be
// replaced by μ (NaN compares false against min/max, so the radius alone
// cannot see it).
func TestNaNInConstantBlock(t *testing.T) {
	data := make([]float32, 256)
	for i := range data {
		data[i] = 1.0
	}
	data[77] = float32(math.NaN())
	comp, err := CompressFloat32(data, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat32(comp)
	if err != nil {
		t.Fatal(err)
	}
	if dec[77] == dec[77] {
		t.Fatalf("NaN decoded as %v", dec[77])
	}
	for i, v := range dec {
		if i != 77 && math.Abs(float64(v)-1.0) > 1.0 {
			t.Fatalf("dec[%d]=%v", i, v)
		}
	}
}

func TestNaNInConstantBlock64(t *testing.T) {
	data := make([]float64, 256)
	for i := range data {
		data[i] = 2.0
	}
	data[5] = math.NaN()
	comp, err := CompressFloat64(data, 10.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat64(comp)
	if err != nil {
		t.Fatal(err)
	}
	if dec[5] == dec[5] {
		t.Fatalf("NaN decoded as %v", dec[5])
	}
}
