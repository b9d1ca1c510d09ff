package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Bit-identity regression suite. The hashes below were captured from the
// pre-generics per-type implementation (encode32/encode64, decode32/decode64)
// on the exact datasets reproduced by the generators in this file. They pin
// both the stream bytes and the reconstructed values, so any refactor of the
// codec core must remain bit-for-bit compatible with the historical format —
// for both element types, including ragged tail blocks (n=127, 129, 12345
// against block sizes 128/64/100) and lossless/guard-retry regimes (the
// "rough" cases).

func goldenData32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := rng.Float64()
	for i := range out {
		v += 0.02 * (rng.Float64() - 0.5)
		out[i] = float32(math.Sin(float64(i)/50) + v)
	}
	return out
}

func goldenData64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := rng.Float64()
	for i := range out {
		v += 0.02 * (rng.Float64() - 0.5)
		out[i] = math.Sin(float64(i)/50) + v
	}
	return out
}

func goldenRough32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6))-3))
	}
	return out
}

func goldenRough64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6))-3)
	}
	return out
}

func streamHash(comp []byte) string {
	s := sha256.Sum256(comp)
	return fmt.Sprintf("%x", s[:8])
}

func valuesHash[T Float](dec []T) string {
	h := sha256.New()
	var b [8]byte
	es := len(b)
	if _, ok := any(dec).([]float32); ok {
		es = 4
	}
	for _, v := range dec {
		var bits uint64
		switch d := any(v).(type) {
		case float32:
			bits = uint64(math.Float32bits(d))
		case float64:
			bits = math.Float64bits(d)
		}
		for j := 0; j < es; j++ {
			b[j] = byte(bits >> (8 * j))
		}
		h.Write(b[:es])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// goldenEntry pins one (dataset, options) combination.
type goldenEntry struct {
	name       string
	streamHash string
	decodeHash string
}

var goldenTable = []goldenEntry{
	{"f32/default-1e-2/n=1", "dc1d89af178cce27", "aac38bbf3bafdb76"},
	{"f64/default-1e-2/n=1", "8671044c3ca0de69", "ce7f55d7d6224a17"},
	{"f32/default-1e-4/n=1", "d77aa7e99055cdf6", "aac38bbf3bafdb76"},
	{"f64/default-1e-4/n=1", "4b16d7dd8831105f", "ce7f55d7d6224a17"},
	{"f32/bs64-1e-3/n=1", "31201d1d2d013144", "aac38bbf3bafdb76"},
	{"f64/bs64-1e-3/n=1", "fda606f9d4ed8dca", "ce7f55d7d6224a17"},
	{"f32/bs100-1e-4/n=1", "ca2e0b01378b93f2", "aac38bbf3bafdb76"},
	{"f64/bs100-1e-4/n=1", "0b7bfff2c64bdb7b", "ce7f55d7d6224a17"},
	{"f32/unguarded-1e-3/n=1", "3596e3c502474c45", "aac38bbf3bafdb76"},
	{"f64/unguarded-1e-3/n=1", "afa5c0d9d2fa7e5f", "ce7f55d7d6224a17"},
	{"f32/default-1e-2/n=127", "24e868633ff710fc", "6246f8963d518956"},
	{"f64/default-1e-2/n=127", "4628e4d5d8d1f43c", "63aed36086f834d1"},
	{"f32/default-1e-4/n=127", "f2ea41a7c5511a92", "7d808bc11191a319"},
	{"f64/default-1e-4/n=127", "a71c9c04af501340", "00b8e8a825a64516"},
	{"f32/bs64-1e-3/n=127", "1a51bb5ca0c294b7", "ba84926fbe922e13"},
	{"f64/bs64-1e-3/n=127", "88f6f923a3f1ac75", "c8102527902d7182"},
	{"f32/bs100-1e-4/n=127", "6e480be14f0d2ac5", "661615fbcc7584c5"},
	{"f64/bs100-1e-4/n=127", "fe2a73fe14775d0f", "5a34726900476d56"},
	{"f32/unguarded-1e-3/n=127", "de932be20bb124c0", "31a8116460c2a3f5"},
	{"f64/unguarded-1e-3/n=127", "3a9e9e2aaf45d314", "2751a15c110a3abe"},
	{"f32/default-1e-2/n=129", "7cbe39629e30df46", "4965c63d6aa379bd"},
	{"f64/default-1e-2/n=129", "e857746fadcd0022", "e8ff5540e9fcd1be"},
	{"f32/default-1e-4/n=129", "7d834807cb50796d", "7903c4a9a45d64b3"},
	{"f64/default-1e-4/n=129", "84f9983033e8c3c7", "095124dbd68c2c47"},
	{"f32/bs64-1e-3/n=129", "9e0950b4e4de0d85", "5b65b778bb033f3f"},
	{"f64/bs64-1e-3/n=129", "01837d4dbf60e887", "060ea1c729405b63"},
	{"f32/bs100-1e-4/n=129", "9470c6e4506b4a12", "4a15642ee655e613"},
	{"f64/bs100-1e-4/n=129", "ec00330ada9938f0", "fcfa0d5aab36bb61"},
	{"f32/unguarded-1e-3/n=129", "05fe22b4530aee11", "34c8ff67b3bdb5f9"},
	{"f64/unguarded-1e-3/n=129", "64caff8ffc60da57", "8eb22b0f628f79ee"},
	{"f32/default-1e-2/n=12345", "acbd6dc71221263c", "56e6182edab530bb"},
	{"f64/default-1e-2/n=12345", "8f76bf3c9c79d376", "3320d1b25dbedaf4"},
	{"f32/default-1e-4/n=12345", "78ee9f8702e4bbc0", "abe65e926c4c263a"},
	{"f64/default-1e-4/n=12345", "22d5c1e1a5bfcf90", "6e33aa699b1fe6e0"},
	{"f32/bs64-1e-3/n=12345", "f25d097d8456c373", "08d3ccf9894fec02"},
	{"f64/bs64-1e-3/n=12345", "144f8b758687cb04", "f1c232a93b9921f6"},
	{"f32/bs100-1e-4/n=12345", "1b86c5802bdf81aa", "27fdcfce3a8422c1"},
	{"f64/bs100-1e-4/n=12345", "c6082687264c4b6a", "bae1d9148d62bd0c"},
	{"f32/unguarded-1e-3/n=12345", "ace6aed8dfeceebd", "1ea08620431a76da"},
	{"f64/unguarded-1e-3/n=12345", "a0a593845575c06f", "81e231f71cff48dc"},
	{"f32/rough-1e-06", "6dac2d93d6db7c18", "b9941b2f2b391145"},
	{"f64/rough-1e-06", "6bd4a749c45c8540", "2c32ecc4894dc800"},
	{"f32/rough-1e-09", "23aac7e05c70282f", "b9941b2f2b391145"},
	{"f64/rough-1e-09", "b0c14abce24078ed", "bb79cbce09ee3345"},
}

var goldenCases = []struct {
	name string
	bs   int
	e    float64
	ung  bool
}{
	{"default-1e-2", 0, 1e-2, false},
	{"default-1e-4", 0, 1e-4, false},
	{"bs64-1e-3", 64, 1e-3, false},
	{"bs100-1e-4", 100, 1e-4, false},
	{"unguarded-1e-3", 0, 1e-3, true},
}

func goldenLookup(t *testing.T, name string) goldenEntry {
	t.Helper()
	for _, g := range goldenTable {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no golden entry for %q", name)
	return goldenEntry{}
}

// checkGolden compresses data every way the package offers — serial,
// parallel at several worker counts, and the Into reuse variants with a
// dirty prefilled destination — and asserts that every path yields the
// pinned stream bytes and the pinned reconstruction.
func checkGolden[T Float](t *testing.T, name string, data []T, e float64, opts Options) {
	t.Helper()
	g := goldenLookup(t, name)

	comp, err := CompressInto[T](nil, data, e, opts)
	if err != nil {
		t.Fatalf("%s: compress: %v", name, err)
	}
	if got := streamHash(comp); got != g.streamHash {
		t.Errorf("%s: serial stream hash = %s, want %s", name, got, g.streamHash)
	}

	dec, err := DecompressInto[T](nil, comp)
	if err != nil {
		t.Fatalf("%s: decompress: %v", name, err)
	}
	if got := valuesHash(dec); got != g.decodeHash {
		t.Errorf("%s: decode hash = %s, want %s", name, got, g.decodeHash)
	}

	workerCounts := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, w := range workerCounts {
		pcomp, err := CompressParallelInto[T](nil, data, e, opts, w)
		if err != nil {
			t.Fatalf("%s: parallel(%d) compress: %v", name, w, err)
		}
		if !bytes.Equal(pcomp, comp) {
			t.Errorf("%s: parallel(%d) stream differs from serial", name, w)
		}
		pdec, err := DecompressParallelInto[T](nil, comp, w)
		if err != nil {
			t.Fatalf("%s: parallel(%d) decompress: %v", name, w, err)
		}
		if got := valuesHash(pdec); got != g.decodeHash {
			t.Errorf("%s: parallel(%d) decode hash = %s, want %s", name, w, got, g.decodeHash)
		}
	}

	// Into variants appending after a dirty prefix, reusing warm capacity.
	prefix := []byte{0xAA, 0xBB, 0xCC}
	buf := append(make([]byte, 0, len(prefix)+len(comp)+64), prefix...)
	buf, err = CompressInto(buf, data, e, opts)
	if err != nil {
		t.Fatalf("%s: CompressInto: %v", name, err)
	}
	if !bytes.Equal(buf[:len(prefix)], prefix) || !bytes.Equal(buf[len(prefix):], comp) {
		t.Errorf("%s: CompressInto append result differs from serial stream", name)
	}
	dirty := make([]T, 2, 2+len(data)+16)
	dirty[0], dirty[1] = 42, 43
	out, err := DecompressInto(dirty, comp)
	if err != nil {
		t.Fatalf("%s: DecompressInto: %v", name, err)
	}
	if out[0] != 42 || out[1] != 43 {
		t.Errorf("%s: DecompressInto clobbered the existing prefix", name)
	}
	if got := valuesHash(out[2:]); got != g.decodeHash {
		t.Errorf("%s: DecompressInto decode hash = %s, want %s", name, got, g.decodeHash)
	}
}

func TestBitIdentityGolden(t *testing.T) {
	for _, n := range []int{1, 127, 129, 12345} {
		for _, c := range goldenCases {
			opts := Options{BlockSize: c.bs, Unguarded: c.ung}
			checkGolden(t, fmt.Sprintf("f32/%s/n=%d", c.name, n), goldenData32(n, int64(n)), c.e, opts)
			checkGolden(t, fmt.Sprintf("f64/%s/n=%d", c.name, n), goldenData64(n, int64(n)), c.e, opts)
		}
	}
	for _, e := range []float64{1e-6, 1e-9} {
		checkGolden(t, fmt.Sprintf("f32/rough-%g", e), goldenRough32(5000, 77), e, Options{})
		checkGolden(t, fmt.Sprintf("f64/rough-%g", e), goldenRough64(5000, 77), e, Options{})
	}
}

// TestBitIdentityWrappers pins the exported per-type wrappers to the same
// streams as the generic Into paths.
func TestBitIdentityWrappers(t *testing.T) {
	d32 := goldenData32(12345, 12345)
	d64 := goldenData64(12345, 12345)
	e := 1e-3

	c32, err := CompressFloat32(d32, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g32, err := CompressInto[float32](nil, d32, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c32, g32) {
		t.Error("CompressFloat32 differs from CompressInto[float32]")
	}
	p32, err := CompressFloat32Parallel(d32, e, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c32, p32) {
		t.Error("CompressFloat32Parallel differs from CompressFloat32")
	}

	c64, err := CompressFloat64(d64, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g64, err := CompressInto[float64](nil, d64, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c64, g64) {
		t.Error("CompressFloat64 differs from CompressInto[float64]")
	}
	p64, err := CompressParallelInto[float64](nil, d64, e, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c64, p64) {
		t.Error("CompressParallelInto[float64] differs from CompressFloat64")
	}

	dec32, err := DecompressFloat32(c32)
	if err != nil {
		t.Fatal(err)
	}
	pdec32, err := DecompressFloat32Parallel(c32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if valuesHash(dec32) != valuesHash(pdec32) {
		t.Error("parallel float32 reconstruction differs from serial")
	}
	dec64, err := DecompressFloat64(c64)
	if err != nil {
		t.Fatal(err)
	}
	pdec64, err := DecompressParallelInto[float64](nil, c64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if valuesHash(dec64) != valuesHash(pdec64) {
		t.Error("parallel float64 reconstruction differs from serial")
	}
}
