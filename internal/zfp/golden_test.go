package zfp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Golden SHA-256 hashes over every stream and every reconstruction's bit
// pattern in the goldenDims × goldenBounds grid, one per element width.
// They pin the baseline's bytes: a change that moves a stream or a decoded
// value fails here even when it still meets the bound.
const (
	goldenFloat32 = "733237ec854b41697dc895457c55fdd16f7e7f0ec97813019d05603e057b55de"
	goldenFloat64 = "bb46e1825da2d71b9278277a8b128f8a0baafca9cbab269daaf3beb66cd0fa9f"
)

// goldenDims covers every rank with ragged 4^d edges, and a 4-D stack.
var goldenDims = [][]int{{37}, {9, 13}, {5, 7, 11}, {2, 3, 5, 7}, {64, 64}}

var goldenBounds = []float64{1e-1, 1e-3, 1e-6, 1e-12}

// goldenInput is a smooth field with noise, with a NaN, a +Inf, a 0 and
// -1e30 planted in it.
func goldenInput(n int) []float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]float64, n)
	for i := range out {
		out[i] = 10*math.Sin(float64(i)/7) + math.Cos(float64(i)/3) + 0.01*rng.NormFloat64()
	}
	out[n/5] = math.NaN()
	out[2*n/5] = math.Inf(1)
	out[3*n/5] = 0
	out[4*n/5] = -1e30
	return out
}

// goldenHash compresses and decompresses every golden case through one
// width's entry points and hashes the streams and reconstructions.
func goldenHash[F float32 | float64](t *testing.T, compress func([]F, []int, float64) ([]byte, error), decompress func([]byte) ([]F, []int, error)) string {
	h := sha256.New()
	for _, dims := range goldenDims {
		n := 1
		for _, d := range dims {
			n *= d
		}
		src := goldenInput(n)
		data := make([]F, n)
		for i, v := range src {
			data[i] = F(v)
		}
		for _, tol := range goldenBounds {
			comp, err := compress(data, dims, tol)
			if err != nil {
				t.Fatalf("%v tol=%g: %v", dims, tol, err)
			}
			dec, _, err := decompress(comp)
			if err != nil {
				t.Fatalf("%v tol=%g: %v", dims, tol, err)
			}
			binary.Write(h, binary.LittleEndian, uint64(len(comp)))
			h.Write(comp)
			binary.Write(h, binary.LittleEndian, dec)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStreams runs on amd64 only: elsewhere Go may fuse x*y+z into
// one FMA, which can round differently.
func TestGoldenStreams(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64")
	}
	if got := goldenHash(t, Compress, Decompress); got != goldenFloat32 {
		t.Errorf("float32 streams changed: %s", got)
	}
	if got := goldenHash(t, CompressFloat64, DecompressFloat64); got != goldenFloat64 {
		t.Errorf("float64 streams changed: %s", got)
	}
}
