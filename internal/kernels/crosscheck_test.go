package kernels

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ieee"
)

// The cross-check suite runs every available vector kernel set against the
// generic reference on adversarial block shapes: ragged tails around every
// vector-group boundary, constant and near-constant blocks, NaN/Inf
// placement, mixed-sign zeros, and every lead-code class.

// statsEquiv reports whether two Stats results are interchangeable for the
// caller. mn/mx must be equal as floats (±0 ties may resolve differently
// between implementations, which provably cannot change μ or the radius) or
// both NaN; noNaN must match exactly unless the block holds an Inf (where
// the constant test fails on the radius regardless of noNaN).
func statsEquiv[T float32 | float64](t *testing.T, blk []T,
	mnG, mxG T, nnG bool, mnV, mxV T, nnV bool) {
	t.Helper()
	sameF := func(a, b T) bool {
		return a == b || (a != a && b != b)
	}
	if !sameF(mnG, mnV) || !sameF(mxG, mxV) {
		t.Fatalf("min/max diverge: generic (%v,%v) vector (%v,%v)", mnG, mxG, mnV, mxV)
	}
	hasInf := false
	for _, v := range blk {
		if math.IsInf(float64(v), 0) {
			hasInf = true
			break
		}
	}
	// A NaN min/max means the radius is NaN and the constant test fails
	// before noNaN is consulted (same for Inf blocks, whose radius is NaN
	// or > bound), so noNaN only has to agree outside those cases. The
	// concrete divergences: the generic sum-chain starts at index 1 and so
	// misses a NaN confined to blk[0] (but that NaN poisons min/max), and
	// ±Inf pairs can turn the sum NaN with no NaN present.
	if !hasInf && mnG == mnG && nnG != nnV {
		t.Fatalf("noNaN diverges on decision-relevant block: generic %v vector %v", nnG, nnV)
	}
	// When ±0 ties resolve differently the sign of mn/mx may differ; pin
	// that it cannot leak into μ the way core computes it.
	muG := float64(mnG)/2 + float64(mxG)/2
	muV := float64(mnV)/2 + float64(mxV)/2
	if !(muG == muV || (muG != muG && muV != muV)) {
		t.Fatalf("μ diverges: %v vs %v", muG, muV)
	}
}

// statsBlocks32 builds the adversarial float32 block set.
func statsBlocks32(rng *rand.Rand) [][]float32 {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	var blocks [][]float32
	// Every length around the 16-lane group boundary plus ragged interior.
	for _, n := range []int{1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 127, 128, 129, 1000, 4095, 4096} {
		blk := make([]float32, n)
		for i := range blk {
			blk[i] = float32(rng.NormFloat64())
		}
		blocks = append(blocks, blk)
	}
	// Constant, all-zero, mixed-zero, NaN/Inf placements.
	constant := make([]float32, 128)
	for i := range constant {
		constant[i] = 3.25
	}
	zeros := make([]float32, 128)
	mixedZeros := make([]float32, 128)
	for i := range mixedZeros {
		if i%3 == 1 {
			mixedZeros[i] = float32(math.Copysign(0, -1))
		}
	}
	posThenZeros := make([]float32, 128)
	for i := range posThenZeros {
		switch {
		case i < 4:
			posThenZeros[i] = 5
		case i%2 == 0:
			posThenZeros[i] = 0
		default:
			posThenZeros[i] = float32(math.Copysign(0, -1))
		}
	}
	blocks = append(blocks, constant, zeros, mixedZeros, posThenZeros)
	for _, pos := range []int{0, 1, 15, 16, 17, 127} {
		nanAt := make([]float32, 128)
		for i := range nanAt {
			nanAt[i] = float32(rng.NormFloat64())
		}
		nanAt[pos] = nan
		infAt := make([]float32, 128)
		copy(infAt, nanAt)
		infAt[pos] = inf
		negInfAt := make([]float32, 128)
		copy(negInfAt, nanAt)
		negInfAt[pos] = -inf
		blocks = append(blocks, nanAt, infAt, negInfAt)
	}
	allNaN := make([]float32, 100)
	for i := range allNaN {
		allNaN[i] = nan
	}
	blocks = append(blocks, allNaN)
	return blocks
}

func statsBlocks64(rng *rand.Rand) [][]float64 {
	blocks32 := statsBlocks32(rng)
	blocks := make([][]float64, len(blocks32))
	for i, b32 := range blocks32 {
		b := make([]float64, len(b32))
		for j, v := range b32 {
			b[j] = float64(v)
		}
		blocks[i] = b
	}
	return blocks
}

func TestStatsCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range Available() {
		if name == "generic" {
			continue
		}
		i32, _ := Lookup32(name)
		i64, _ := Lookup64(name)
		t.Run(name+"/f32", func(t *testing.T) {
			for bi, blk := range statsBlocks32(rng) {
				mnG, mxG, nnG := statsGeneric(blk)
				mnV, mxV, nnV := i32.Stats(blk)
				t.Logf("block %d len %d", bi, len(blk))
				statsEquiv(t, blk, mnG, mxG, nnG, mnV, mxV, nnV)
			}
		})
		t.Run(name+"/f64", func(t *testing.T) {
			for bi, blk := range statsBlocks64(rng) {
				mnG, mxG, nnG := statsGeneric(blk)
				mnV, mxV, nnV := i64.Stats(blk)
				t.Logf("block %d len %d", bi, len(blk))
				statsEquiv(t, blk, mnG, mxG, nnG, mnV, mxV, nnV)
			}
		})
	}
}

// encCase is one encode configuration to cross-check: a (μ, reqLen) pair
// plus guard settings chosen to exercise the fast-accept, fast-fail→exact,
// reject, and sentinel paths.
type encCase struct {
	mu       float64
	reqLen   int
	guarded  bool
	eSafe    float64
	errBound float64
}

// encCases builds the configuration sweep for one block: the lossless class
// plus, when μ is finite, every reqBytes class both unguarded and under
// guards tuned to accept, to fast-fail into the exact check, and to reject.
func encCases(mn, mx float64, fullBits int, reqLens []int) []encCase {
	cases := []encCase{{mu: 0, reqLen: fullBits}}
	mu := mn/2 + mx/2
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return cases
	}
	radius := math.Max(mx-mu, mu-mn)
	if !(radius > 0) || math.IsInf(radius, 0) {
		radius = 1
	}
	for _, rl := range reqLens {
		eb := radius / 64
		cases = append(cases,
			encCase{mu: mu, reqLen: rl}, // unguarded
			encCase{mu: mu, reqLen: rl, guarded: true, eSafe: radius * 4, errBound: radius * 4}, // fast-accept
			encCase{mu: mu, reqLen: rl, guarded: true, eSafe: eb / 1e6, errBound: radius * 4},   // fast-fail, exact accepts
			encCase{mu: mu, reqLen: rl, guarded: true, eSafe: eb, errBound: eb},                 // mixed, may reject
			encCase{mu: mu, reqLen: rl, guarded: true, eSafe: -1, errBound: radius * 4},         // sentinel
		)
	}
	return cases
}

// encDecCrossCheck drives one vector kernel set against the generic
// reference over the adversarial blocks: encode output must match byte for
// byte (same lead array, mid bytes, and accept/reject verdict), and both
// decoders must reconstruct bit-identical values from the shared payload.
func encDecCrossCheck[T ieee.Float, B ieee.Word](t *testing.T, blocks [][]T,
	encV func(lead, mid []byte, blk []T, mu T, reqLen int, guarded bool, eSafe T, errBound float64, scr *Scratch) (int, bool),
	decV func(out []T, lead, mid []byte, mu T, reqLen int) bool,
	reqLens []int) {
	t.Helper()
	es := ieee.Width[T]()
	scrG, scrV := GetScratch(), GetScratch()
	defer PutScratch(scrG)
	defer PutScratch(scrV)
	for bi, blk := range blocks {
		n := len(blk)
		mn, mx, _ := statsGeneric(blk)
		for ci, c := range encCases(float64(mn), float64(mx), ieee.FullBits[T](), reqLens) {
			leadG := make([]byte, (n+3)/4)
			leadV := make([]byte, (n+3)/4)
			midG := make([]byte, es*n+es)
			midV := make([]byte, es*n+es)
			mu := T(c.mu)
			mlG, okG := encodeScanGeneric[T, B](leadG, midG, blk, mu, c.reqLen, c.guarded, T(c.eSafe), c.errBound, scrG)
			mlV, okV := encV(leadV, midV, blk, mu, c.reqLen, c.guarded, T(c.eSafe), c.errBound, scrV)
			if okG != okV {
				t.Fatalf("block %d case %d: verdict diverges: generic %v vector %v", bi, ci, okG, okV)
			}
			if !okG {
				continue
			}
			if mlG != mlV {
				t.Fatalf("block %d case %d: midLen diverges: generic %d vector %d", bi, ci, mlG, mlV)
			}
			if !bytes.Equal(leadG, leadV) {
				t.Fatalf("block %d case %d: lead bytes diverge", bi, ci)
			}
			if !bytes.Equal(midG[:mlG], midV[:mlV]) {
				t.Fatalf("block %d case %d: mid bytes diverge", bi, ci)
			}
			outG := make([]T, n)
			outV := make([]T, n)
			if !decodeScanGeneric[T, B](outG, leadG, midG[:mlG], mu, c.reqLen) {
				t.Fatalf("block %d case %d: generic decode rejected its own payload", bi, ci)
			}
			if !decV(outV, leadV, midV[:mlV], mu, c.reqLen) {
				t.Fatalf("block %d case %d: vector decode rejected the payload", bi, ci)
			}
			for i := range outG {
				if ieee.ToBits[B](outG[i]) != ieee.ToBits[B](outV[i]) {
					t.Fatalf("block %d case %d value %d: decode diverges: %v vs %v", bi, ci, i, outG[i], outV[i])
				}
			}
		}
	}
}

func TestEncodeDecodeCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range Available() {
		if name == "generic" {
			continue
		}
		i32, _ := Lookup32(name)
		i64, _ := Lookup64(name)
		t.Run(name+"/f32", func(t *testing.T) {
			encDecCrossCheck[float32, uint32](t, statsBlocks32(rng), i32.EncodeScan, i32.DecodeScan,
				[]int{10, 16, 20, 24, 28})
		})
		t.Run(name+"/f64", func(t *testing.T) {
			encDecCrossCheck[float64, uint64](t, statsBlocks64(rng), i64.EncodeScan, i64.DecodeScan,
				[]int{10, 16, 24, 33, 40, 52, 60})
		})
	}
}

// TestDecodeReadSlack pins DecodeScan's read-slack contract on every
// (reqBytes, lead byte): a 128-value block whose lead bytes all equal the
// key, with random mid-bytes of exactly the length the block consumes and
// random capacity after them, must decode like the generic kernel; with mid
// one byte short it must be corrupt, whatever the capacity holds.
func TestDecodeReadSlack(t *testing.T) {
	for _, name := range Available() {
		if name == "generic" {
			continue
		}
		i32, _ := Lookup32(name)
		i64, _ := Lookup64(name)
		t.Run(name+"/f32", func(t *testing.T) { readSlackCheck[float32, uint32](t, i32.DecodeScan) })
		t.Run(name+"/f64", func(t *testing.T) { readSlackCheck[float64, uint64](t, i64.DecodeScan) })
	}
}

func readSlackCheck[T ieee.Float, B ieee.Word](t *testing.T, decV func(out []T, lead, mid []byte, mu T, reqLen int) bool) {
	const n = 128
	es := ieee.Width[T]()
	rng := rand.New(rand.NewSource(3))
	lead := make([]byte, n/4)
	buf := make([]byte, es*n+64)
	outG, outV := make([]T, n), make([]T, n)
	for rb := 2; rb <= es; rb++ {
		for key := 0; key < 256; key++ {
			reqLen := 8*rb - key%8 // every shift; lossless when rb == es and key%8 == 0
			midLen := 0
			for q := 0; q < 4; q++ {
				midLen += n / 4 * (rb - (key>>(6-2*q))&3)
			}
			for i := range lead {
				lead[i] = byte(key)
			}
			rng.Read(buf)
			mid := buf[:max(midLen, 0)]
			okG := decodeScanGeneric[T, B](outG, lead, mid[:len(mid):len(mid)], 1.5, reqLen)
			if okV := decV(outV, lead, mid, 1.5, reqLen); okV != okG {
				t.Fatalf("reqBytes %d key %#02x: verdict %v, generic %v", rb, key, okV, okG)
			}
			if !okG || midLen == 0 {
				continue
			}
			for i := range outG {
				if ieee.ToBits[B](outG[i]) != ieee.ToBits[B](outV[i]) {
					t.Fatalf("reqBytes %d key %#02x value %d: %v, generic %v", rb, key, i, outV[i], outG[i])
				}
			}
			if decV(outV, lead, mid[:midLen-1], 1.5, reqLen) {
				t.Fatalf("reqBytes %d key %#02x: decoded a mid one byte short from its slack", rb, key)
			}
		}
	}
}
