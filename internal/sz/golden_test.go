package sz

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
// pattern in the goldenDims × goldenBounds × goldenCapacities grid: one per
// element width for the Lorenzo path, and one over the float32 regression
// and automatic predictors. They pin the baseline's bytes: a change that
// moves a stream or a decoded value fails here even when it still meets the
// bound.
const (
	goldenFloat32    = "df1164fda8d2ee807f7ec745a5629b0d5c347d54111d642d8737b677c89231b3"
	goldenFloat64    = "700c8abdc1d5ed2566b688eb581597a989cd98d53ed4da9a6eae44f7b6665448"
	goldenRegression = "26699b7bed85bc07253d3aa813a1e52d6692f80c08cbda25ed97e5872b310488"
)

// goldenDims covers every rank with ragged edges, and a 4-D stack.
var goldenDims = [][]int{{37}, {9, 13}, {5, 7, 11}, {2, 3, 5, 7}, {64, 64}}

var goldenBounds = []float64{1e-1, 1e-3, 1e-6, 1e-12}

var goldenCapacities = []int{0, 256}

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
// width's entry points under opts (whose Capacity the grid sets) and hashes
// the streams and reconstructions.
func goldenHash[F float32 | float64](t *testing.T, opts Options, compress func([]F, []int, float64, Options) ([]byte, error), decompress func([]byte) ([]F, []int, error)) string {
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
		for _, e := range goldenBounds {
			for _, c := range goldenCapacities {
				opts.Capacity = c
				comp, err := compress(data, dims, e, opts)
				if err != nil {
					t.Fatalf("%v e=%g %+v: %v", dims, e, opts, err)
				}
				dec, _, err := decompress(comp)
				if err != nil {
					t.Fatalf("%v e=%g %+v: %v", dims, e, opts, err)
				}
				binary.Write(h, binary.LittleEndian, uint64(len(comp)))
				h.Write(comp)
				binary.Write(h, binary.LittleEndian, dec)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStreams runs on amd64 only: elsewhere Go may fuse the
// quantizer's pred + q*2*e into one FMA, which can round differently.
func TestGoldenStreams(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64")
	}
	if got := goldenHash(t, Options{}, Compress, Decompress); got != goldenFloat32 {
		t.Errorf("float32 streams changed: %s", got)
	}
	if got := goldenHash(t, Options{}, CompressFloat64, DecompressFloat64); got != goldenFloat64 {
		t.Errorf("float64 streams changed: %s", got)
	}
	reg := sha256.New()
	for _, p := range []Predictor{PredRegression, PredAuto} {
		reg.Write([]byte(goldenHash(t, Options{Predictor: p}, Compress, Decompress)))
	}
	if got := hex.EncodeToString(reg.Sum(nil)); got != goldenRegression {
		t.Errorf("regression streams changed: %s", got)
	}
}
