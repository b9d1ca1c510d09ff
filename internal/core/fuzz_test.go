package core

import (
	"math"
	"testing"
)

// Fuzz targets: decoders must never panic or read out of bounds on
// arbitrary input, returning data or an error. Run with
// `go test -fuzz=FuzzDecompressFloat32 ./internal/core`; under plain
// `go test` the seed corpus doubles as a robustness regression suite.

func fuzzSeeds(f *testing.F) {
	data := genSmooth32(500, 42)
	comp32, _ := CompressFloat32(data, 1e-3, Options{})
	f.Add(comp32)
	data64 := make([]float64, 300)
	for i := range data64 {
		data64[i] = math.Sin(float64(i) / 10)
	}
	comp64, _ := CompressFloat64(data64, 1e-6, Options{})
	f.Add(comp64)
	packed, _ := CompressFloat32PackedBits(data, 1e-3, Options{})
	f.Add(packed)
	f.Add([]byte{})
	f.Add([]byte("SZX1"))
	f.Add([]byte("SZX1\x01\x00\x00\x00\x80\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
}

func FuzzDecompressFloat32(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, comp []byte) {
		out, err := DecompressFloat32(comp)
		if err == nil {
			// A successful decode must honor the header's value count.
			h, herr := ParseHeader(comp)
			if herr != nil || len(out) != h.N {
				t.Fatalf("decode/header mismatch: %v, %d values", herr, len(out))
			}
			// Parallel decode of a valid stream must agree bitwise.
			par, perr := DecompressFloat32Parallel(comp, 4)
			if perr != nil {
				t.Fatalf("serial ok but parallel failed: %v", perr)
			}
			for i := range out {
				if math.Float32bits(out[i]) != math.Float32bits(par[i]) {
					t.Fatal("parallel decode differs")
				}
			}
		}
	})
}

func FuzzDecompressFloat64(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, comp []byte) {
		_, _ = DecompressFloat64(comp)
	})
}

func FuzzDecompressPackedBits(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, comp []byte) {
		_, _ = DecompressFloat32PackedBits(comp)
	})
}

func FuzzDecompressRange(f *testing.F) {
	data := genSmooth32(500, 43)
	comp, _ := CompressFloat32(data, 1e-3, Options{})
	f.Add(comp, 10, 200)
	f.Add(comp, -5, 1<<30)
	f.Add([]byte("SZX1junk"), 0, 10)
	f.Fuzz(func(t *testing.T, comp []byte, lo, hi int) {
		out, err := DecompressFloat32Range(comp, lo, hi)
		if err == nil && len(out) != hi-lo {
			t.Fatalf("range decode returned %d values for [%d,%d)", len(out), lo, hi)
		}
		// A range of a stream that decodes whole must decode, to exactly
		// the whole decode's values there.
		full, ferr := DecompressFloat32(comp)
		if ferr != nil || lo < 0 || lo > hi || hi > len(full) {
			return
		}
		if err != nil {
			t.Fatalf("full decode ok but range [%d,%d) failed: %v", lo, hi, err)
		}
		for i, v := range out {
			if math.Float32bits(v) != math.Float32bits(full[lo+i]) {
				t.Fatalf("range [%d,%d): value %d differs from the full decode", lo, hi, lo+i)
			}
		}
	})
}
