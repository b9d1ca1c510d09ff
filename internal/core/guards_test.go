package core

import (
	"math"
	"testing"

	"repro/internal/bitio"
)

// TestZsizeGuard exercises the uint16 block-size side channel's guard rails:
// the worst-case payload of a maximum-size block must fit in a uint16 (the
// compile-time const assertion in format.go mirrors this), and the
// compressor must reject block sizes whose worst case cannot.
func TestZsizeGuard(t *testing.T) {
	// Worst case: lossless float64 block, every lead code 0.
	worst := 8 + 1 + bitio.PackedLen(MaxBlockSize) + 8*MaxBlockSize
	if worst != maxBlockPayload64 {
		t.Fatalf("maxBlockPayload64 = %d, want %d", maxBlockPayload64, worst)
	}
	if worst > math.MaxUint16 {
		t.Fatalf("worst-case block payload %d does not fit uint16", worst)
	}

	// A stream of incompressible values at MaxBlockSize must round-trip:
	// every block takes the lossless path and stresses the widest payloads
	// the size channel can carry.
	data := make([]float64, 2*MaxBlockSize+17)
	v := 1.0
	for i := range data {
		v = v*1103515245.5 + 12345.25
		if math.IsInf(v, 0) {
			v = 1.0
		}
		data[i] = v
	}
	comp, err := CompressFloat64(data, 1e-300, Options{BlockSize: MaxBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat64(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(dec[i]) != math.Float64bits(data[i]) {
			t.Fatalf("lossless round-trip differs at %d", i)
		}
	}

	// Oversized block sizes are rejected up front.
	if _, err := CompressFloat64(data, 1e-3, Options{BlockSize: MaxBlockSize + 1}); err != ErrBlockSize {
		t.Fatalf("BlockSize %d: got %v, want ErrBlockSize", MaxBlockSize+1, err)
	}
}
