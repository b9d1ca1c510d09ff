package kernels

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/ieee"
)

// FuzzKernelCrossCheck drives every available vector kernel set against the
// generic reference on fuzzed raw blocks: stats agreement, encode byte
// identity (including the guard fast-fail → exact-recheck path and the
// reject verdict), and decode agreement on both well-formed payloads
// (round-tripped from the encode) and arbitrary fuzzed lead/mid bytes
// (corrupt-verdict agreement).
func FuzzKernelCrossCheck(f *testing.F) {
	f.Add([]byte{}, uint8(0), true)
	f.Add(bytes.Repeat([]byte{0x40, 0x50, 0x00, 0x00}, 40), uint8(10), true)
	f.Add(bytes.Repeat([]byte{0x00}, 133), uint8(3), false)
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(200), true) // NaN payloads
	seed := make([]byte, 4*67)
	for i := 0; i < 67; i++ {
		binary.LittleEndian.PutUint32(seed[4*i:], math.Float32bits(100+float32(i%17)*0.25))
	}
	f.Add(seed, uint8(77), true)
	// A 48-value lossless payload whose mid is 35 bytes short: with read
	// slack the vector loop can finish the block, and must still reject it.
	f.Add(append(bytes.Repeat([]byte{0xff}, 11), bytes.Repeat([]byte{'0'}, 23)...), uint8(143), true)
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8, guarded bool) {
		n32 := len(raw) / 4
		if n32 > 512 {
			n32 = 512
		}
		if n32 == 0 {
			return
		}
		blk32 := make([]float32, n32)
		for i := range blk32 {
			blk32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		n64 := len(raw) / 8
		if n64 > 512 {
			n64 = 512
		}
		blk64 := make([]float64, n64)
		for i := range blk64 {
			blk64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		for _, name := range Available() {
			if name == "generic" {
				continue
			}
			i32, _ := Lookup32(name)
			i64, _ := Lookup64(name)

			mn, mx, nnG := statsGeneric(blk32)
			mnV, mxV, nnV := i32.Stats(blk32)
			statsEquiv(t, blk32, mn, mx, nnG, mnV, mxV, nnV)

			reqLen32 := 9 + int(sel)%24 // 9..32
			fuzzEncDec[float32, uint32](t, blk32, i32.EncodeScan, i32.DecodeScan, reqLen32, guarded, float64(mn), float64(mx))
			fuzzDecodeRaw[float32, uint32](t, raw, sel, i32.DecodeScan, reqLen32)

			if n64 > 0 {
				mn64, mx64, nn64G := statsGeneric(blk64)
				mn64V, mx64V, nn64V := i64.Stats(blk64)
				statsEquiv(t, blk64, mn64, mx64, nn64G, mn64V, mx64V, nn64V)

				reqLen64 := 9 + int(sel)%56 // 9..64
				fuzzEncDec[float64, uint64](t, blk64, i64.EncodeScan, i64.DecodeScan, reqLen64, guarded, float64(mn64), float64(mx64))
				fuzzDecodeRaw[float64, uint64](t, raw, sel, i64.DecodeScan, reqLen64)
			}
		}
	})
}

// fuzzEncDec cross-checks one encode configuration derived from the block's
// own stats (so accept and reject paths both occur), then round-trips the
// payload through both decoders when accepted.
func fuzzEncDec[T ieee.Float, B ieee.Word](t *testing.T, blk []T,
	encV func(lead, mid []byte, blk []T, mu T, reqLen int, guarded bool, eSafe T, errBound float64, scr *Scratch) (int, bool),
	decV func(out []T, lead, mid []byte, mu T, reqLen int) bool,
	reqLen int, guarded bool, mn, mx float64) {
	t.Helper()
	mu := mn/2 + mx/2
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		mu = 0
	}
	radius := math.Max(mx-mu, mu-mn)
	if !(radius > 0) || math.IsInf(radius, 0) {
		radius = 1
	}
	errBound := radius / 64
	n := len(blk)
	es := ieee.Width[T]()
	scrG, scrV := GetScratch(), GetScratch()
	defer PutScratch(scrG)
	defer PutScratch(scrV)
	leadG := make([]byte, bitio.PackedLen(n))
	leadV := make([]byte, bitio.PackedLen(n))
	midG := make([]byte, es*n+es)
	midV := make([]byte, es*n+es)
	mlG, okG := encodeScanGeneric[T, B](leadG, midG, blk, T(mu), reqLen, guarded, T(errBound), errBound, scrG)
	mlV, okV := encV(leadV, midV, blk, T(mu), reqLen, guarded, T(errBound), errBound, scrV)
	if okG != okV {
		t.Fatalf("encode verdict diverges: generic %v vector %v", okG, okV)
	}
	if !okG {
		return
	}
	if mlG != mlV || !bytes.Equal(leadG, leadV) || !bytes.Equal(midG[:mlG], midV[:mlV]) {
		t.Fatalf("encode bytes diverge (midLen %d vs %d)", mlG, mlV)
	}
	outG := make([]T, n)
	outV := make([]T, n)
	rG := decodeScanGeneric[T, B](outG, leadG, midG[:mlG], T(mu), reqLen)
	rV := decV(outV, leadV, midV[:mlV], T(mu), reqLen)
	if rG != rV {
		t.Fatalf("decode verdict diverges on valid payload: %v vs %v", rG, rV)
	}
	for i := range outG {
		if ieee.ToBits[B](outG[i]) != ieee.ToBits[B](outV[i]) {
			t.Fatalf("decode value %d diverges: %v vs %v", i, outG[i], outV[i])
		}
	}
}

// fuzzDecodeRaw feeds arbitrary fuzzed bytes to both decoders as a
// lead/mid payload: the corrupt verdict and, on acceptance, every
// reconstructed bit must agree. The vector decoder sees mid twice: with no
// capacity past its length, and followed by at least 32 random bytes of
// capacity (the read slack DecodeScan may load but must not use).
func fuzzDecodeRaw[T ieee.Float, B ieee.Word](t *testing.T, raw []byte, sel uint8,
	decV func(out []T, lead, mid []byte, mu T, reqLen int) bool, reqLen int) {
	t.Helper()
	n := int(sel)%96 + 1
	pl := bitio.PackedLen(n)
	if len(raw) < pl {
		return
	}
	lead := raw[:pl]
	mid := raw[pl:]
	mu := T(float64(sel) * 0.5)
	outG := make([]T, n)
	rG := decodeScanGeneric[T, B](outG, lead, mid[:len(mid):len(mid)], mu, reqLen)
	for _, m := range [][]byte{mid[:len(mid):len(mid)], withSlack(mid, 32+int(sel)%17, int64(len(raw))<<8|int64(sel))} {
		outV := make([]T, n)
		rV := decV(outV, lead, m, mu, reqLen)
		if rG != rV {
			t.Fatalf("decode verdict diverges on raw payload: generic %v vector %v (n=%d reqLen=%d slack=%d)",
				rG, rV, n, reqLen, cap(m)-len(m))
		}
		if !rG {
			continue
		}
		for i := range outG {
			if ieee.ToBits[B](outG[i]) != ieee.ToBits[B](outV[i]) {
				t.Fatalf("raw decode value %d diverges: %v vs %v (slack=%d)", i, outG[i], outV[i], cap(m)-len(m))
			}
		}
	}
}

// withSlack copies mid into a buffer with slack random bytes after it and
// returns the copy, whose capacity covers the slack.
func withSlack(mid []byte, slack int, seed int64) []byte {
	buf := make([]byte, len(mid)+slack)
	rand.New(rand.NewSource(seed)).Read(buf[len(mid):])
	return buf[:copy(buf, mid)]
}
