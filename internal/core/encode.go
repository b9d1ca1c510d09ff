package core

import (
	"encoding/binary"
	"math"
	"slices"
	"time"

	"repro/internal/bitio"
	"repro/internal/ieee"
	"repro/internal/kernels"
	"repro/telemetry"
)

// This file holds the single generic block encoder. The float32 and float64
// pipelines are instantiations of the same code; the exported CompressFloat32
// / CompressFloat64 wrappers below pin the historical API.

// appendCompressed appends one complete SZx stream for data onto dst and
// returns the extended slice plus per-run statistics. With sufficient
// capacity in dst it performs no allocations.
func appendCompressed[T Float, B Word](dst []byte, data []T, errBound float64, opts Options) ([]byte, Stats, error) {
	bs, err := opts.blockSize()
	if err != nil {
		return nil, Stats{}, err
	}
	if !(errBound > 0) || math.IsInf(errBound, 0) {
		return nil, Stats{}, ErrErrBound
	}
	es := ieee.Width[T]()
	h := Header{Type: dtypeOf[T](), BlockSize: bs, N: len(data), ErrBound: errBound}
	nb := h.NumBlocks()
	rec := telemetry.Enabled()
	var tm telemetry.Timer
	if rec {
		tm = telemetry.Start()
	}
	if sink := opts.Spans; sink != nil {
		t0 := time.Now()
		defer func() { sink.RecordSpan("encode", t0, time.Now()) }()
	}
	dstBase := len(dst)

	// Size hint: header + index + a typical ~2x reduction of the payload.
	dst = slices.Grow(dst, headerSize+(nb+7)/8+2*nb+es*len(data)/2+es)
	dst = AppendHeader(dst, h)
	bitmapOff := len(dst)
	dst = appendZeros(dst, (nb+7)/8)
	zsizeOff := len(dst)
	dst = appendZeros(dst, 2*nb)

	enc := newBlockEncoder[T, B](errBound, !opts.Unguarded)
	scr := kernels.GetScratch()
	defer kernels.PutScratch(scr)
	var tally telemetry.BlockTally
	if rec {
		enc.tally = &tally
	}
	st := Stats{Blocks: nb, OriginalSize: es * len(data), EffectiveBound: errBound}
	for k := 0; k < nb; k++ {
		lo := k * bs
		hi := lo + bs
		if hi > len(data) {
			hi = len(data)
		}
		start := len(dst)
		var constant bool
		dst, constant = enc.encodeBlock(dst, data[lo:hi], scr)
		if !constant {
			dst[bitmapOff+(k>>3)] |= 1 << uint(k&7)
		} else {
			st.ConstantBlocks++
		}
		sz := len(dst) - start
		if sz > math.MaxUint16 {
			// Unreachable while maxBlockPayload(MaxBlockSize) fits uint16
			// (enforced at compile time in format.go); kept as a hard stop
			// so a future constant bump cannot silently corrupt the index.
			return nil, Stats{}, ErrBlockSize
		}
		binary.LittleEndian.PutUint16(dst[zsizeOff+2*k:], uint16(sz))
	}
	st.LosslessBlocks = enc.lossless
	st.GuardRetries = enc.retries
	st.CompressedSize = len(dst)
	if rec {
		tally.Flush()
		telemetry.EngineCompressSerial.Inc()
		telemetry.RecordCompress(es*len(data), len(dst)-dstBase, tm.Elapsed())
	}
	return dst, st, nil
}

// blockEncoder carries per-run encoder state across blocks.
type blockEncoder[T Float, B Word] struct {
	errBound float64
	eSafe    T
	guarded  bool
	lossless int
	retries  int
	// tally, when non-nil, accumulates per-block telemetry (block types,
	// required-bit counts, lead-code distribution) without atomics; the
	// owner flushes it once per call. Nil whenever telemetry is disabled,
	// so the hot loops only ever pay a predictable nil check per block.
	tally *telemetry.BlockTally
}

func newBlockEncoder[T Float, B Word](errBound float64, guarded bool) blockEncoder[T, B] {
	// Fast-accept threshold for the guard: a native-width diff below this is
	// safely within the bound even after its own rounding; marginal cases
	// fall through to the exact float64 comparison.
	eSafe := T(errBound * (1 - 1e-6))
	if float64(eSafe) >= errBound {
		// Tiny (subnormal-range) bounds can round eSafe up past the bound;
		// force every value through the exact check instead.
		eSafe = -1
	}
	return blockEncoder[T, B]{errBound: errBound, eSafe: eSafe, guarded: guarded}
}

// encodeBlock appends one block's payload to dst and reports whether the
// block was constant. Nonconstant payload layout:
//
//	μ (4/8B LE) | reqLength (1B) | leading 2-bit array | mid-bytes
//
// scr is passed as a parameter rather than kept in the encoder: the kernel
// call is indirect (through the dispatch table), so escape analysis assumes
// its pointer arguments leak — loading the scratch out of the receiver
// would leak the receiver's contents and force the owner's stack-allocated
// tally to the heap, costing an allocation per compress call.
func (enc *blockEncoder[T, B]) encodeBlock(dst []byte, blk []T, scr *kernels.Scratch) ([]byte, bool) {
	mu, radius, noNaN := blockStats(blk)
	if radius <= enc.errBound && noNaN { // radius NaN also fails the test
		if t := enc.tally; t != nil {
			t.Constant++
		}
		var b [8]byte
		ieee.PutLE(b[:], ieee.ToBits[B](mu))
		return append(dst, b[:ieee.Width[T]()]...), true
	}

	radExpo := ieee.Exponent64(radius)
	errExpo := ieee.Exponent64(enc.errBound)
	reqLen, lossless := ieee.ReqLength[T](radExpo, errExpo)
	start := len(dst)
	for {
		if lossless {
			mu = 0
			enc.lossless++
		}
		var ok bool
		dst, ok = enc.encodeNonConstant(dst, blk, mu, reqLen, lossless, scr)
		if ok {
			if t := enc.tally; t != nil {
				t.NonConstant++
				if lossless {
					t.Lossless++
				}
				t.Req[reqLen]++
				// The packed 2-bit lead array sits right after μ and the
				// reqLength byte; tallying from the packed form costs one
				// table load per four values.
				es := ieee.Width[T]()
				t.CountPackedLeads(dst[start+es+1:start+es+1+bitio.PackedLen(len(blk))], len(blk))
			}
			return dst, false
		}
		// Guard tripped: widen the kept prefix and retry.
		enc.retries++
		if t := enc.tally; t != nil {
			t.Retries++
		}
		dst = dst[:start]
		reqLen += 8
		if reqLen >= ieee.FullBits[T]() {
			reqLen = ieee.FullBits[T]()
			lossless = true
		}
	}
}

// encodeNonConstant writes one nonconstant block payload: μ and the
// reqLength byte inline, then the packed lead array and mid-bytes through
// the dispatched EncodeScan kernel.
func (enc *blockEncoder[T, B]) encodeNonConstant(dst []byte, blk []T, mu T, reqLen int, lossless bool, scr *kernels.Scratch) ([]byte, bool) {
	es := ieee.Width[T]()
	s := uint(ieee.ShiftBits(reqLen))
	reqBytes := (reqLen + int(s)) / 8 // 2..4 for float32, 2..8 for float64
	n := len(blk)
	leadLen := bitio.PackedLen(n)

	// Grow once to the worst-case payload plus one word of slack, and write
	// by index. The slack makes the kernel's wide stores unconditionally
	// in-bounds even when only one byte of a word is kept, so the per-value
	// loop carries no append bookkeeping and no byte-copy tail; the slice
	// is truncated to the actual size at the end.
	start := len(dst)
	maxPayload := es + 1 + leadLen + reqBytes*n + es
	dst = slices.Grow(dst, maxPayload)[:start+maxPayload]
	ieee.PutLE(dst[start:], ieee.ToBits[B](mu))
	dst[start+es] = byte(reqLen)
	leadOff := start + es + 1
	midOff := leadOff + leadLen

	guarded := enc.guarded && !lossless
	lead := dst[leadOff:midOff]
	mid := dst[midOff : start+maxPayload]
	var midLen int
	var ok bool
	if es == 4 {
		midLen, ok = kernels.K32.EncodeScan(lead, mid, asF32(blk), float32(mu), reqLen,
			guarded, float32(enc.eSafe), enc.errBound, scr)
	} else {
		midLen, ok = kernels.K64.EncodeScan(lead, mid, asF64(blk), float64(mu), reqLen,
			guarded, float64(enc.eSafe), enc.errBound, scr)
	}
	if !ok {
		return dst[:start], false
	}
	return dst[:midOff+midLen], true
}

// --- exported wrappers (historical per-type API) ---------------------------

// CompressFloat32 compresses data with the SZx algorithm under the absolute
// error bound errBound. The returned stream decompresses with
// DecompressFloat32 such that every value differs from the original by at
// most errBound.
func CompressFloat32(data []float32, errBound float64, opts Options) ([]byte, error) {
	out, _, err := appendCompressed[float32, uint32](nil, data, errBound, opts)
	return out, err
}

// CompressFloat32Stats is CompressFloat32 but also reports per-run statistics.
func CompressFloat32Stats(data []float32, errBound float64, opts Options) ([]byte, Stats, error) {
	return appendCompressed[float32, uint32](nil, data, errBound, opts)
}

// CompressFloat64 compresses data with the SZx algorithm under the absolute
// error bound errBound.
func CompressFloat64(data []float64, errBound float64, opts Options) ([]byte, error) {
	out, _, err := appendCompressed[float64, uint64](nil, data, errBound, opts)
	return out, err
}
