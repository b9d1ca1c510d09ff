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

// This file holds the codec's one compressor and its block encoder. The
// float32 and float64 pipelines are instantiations of the same code; the
// exported wrappers below, in into.go and in parallel.go pin the
// historical API.

// appendCompressed appends one complete SZx stream for data onto dst and
// returns the extended slice plus per-run statistics. It is the codec's
// only compressor, the analogue of the paper's OpenMP compressor (§6.1):
// one block loop, encodeBlocks, split among the participants that
// Participants grants workers. Blocks are independent, so the split never
// changes the bytes.
//
// The bound is errBound, or, when rb is set, rb of data's value range (a
// value-range-relative bound); rb's error comes before the block size's.
//
// On one participant the blocks are encoded on the caller, straight into
// dst, so with enough capacity in dst the call allocates nothing. A
// relative bound then takes its range from ValueRange, and each block
// takes its own stats. workers == 1 is the serial codec; any other request
// that Participants narrows to one participant is the engine's serial
// fallback.
//
// On more participants the block range is cut into chunks (a multiple of
// 8 blocks) that fanOut's participants claim off its cursor, in up to
// three phases. With rb set, statsPhase first takes every block's stats
// into a table and reduces the blocks' ranges, and rb resolves the bound
// from that reduction, so the data is scanned once rather than twice. The
// encode phase appends each claimed chunk's payload to the participant's
// scratch and writes the chunk's bitmap bits and zsize entries straight
// into dst's index (a chunk owns whole bitmap bytes, so no two chunks
// share one). After that barrier the chunk offsets are prefix-summed, dst
// grows to the exact size, and the gather copies each chunk's payload to
// its final offset.
func appendCompressed[T Float, B Word](dst []byte, data []T, errBound float64, rb RangeBound, opts Options, workers int) ([]byte, Stats, error) {
	rec := telemetry.Enabled()
	var tm telemetry.Timer
	if rec {
		tm = telemetry.Start()
	}
	es := ieee.Width[T]()
	bs, bsErr := opts.blockSize()
	nb := 0
	if bsErr == nil {
		nb = (len(data) + bs - 1) / bs
	}
	chunk, nchunks, participants := split(nb, workers, es*len(data))
	var j *parJob
	if participants > 1 {
		j = getParJob(nchunks, participants)
	}
	var err error
	switch {
	case rb == nil:
	case j == nil:
		mn, mx := ValueRange(data)
		errBound, err = rb(float64(mn), float64(mx))
	default:
		errBound, err = rb(statsPhase[T, B](j, data, bs, chunk, participants))
	}
	if err == nil {
		err = bsErr
	}
	if err == nil && (!(errBound > 0) || math.IsInf(errBound, 0)) {
		err = ErrErrBound
	}
	if err != nil {
		if j != nil {
			parJobPool.Put(j)
		}
		return nil, Stats{}, err
	}
	sink := opts.Spans
	var t0 time.Time
	if sink != nil {
		t0 = time.Now()
	}
	h := Header{Type: dtypeOf[T](), BlockSize: bs, N: len(data), ErrBound: errBound}
	dstBase := len(dst)

	// On one participant the payload follows in dst, so dst grows for a
	// typical ~2x reduction of it too; on more, dst grows for the header
	// and index only, and to the exact size once the payload's is known.
	hint := 0
	if j == nil {
		hint = es*len(data)/2 + es
	}
	dst = slices.Grow(dst, headerSize+(nb+7)/8+2*nb+hint)
	dst = AppendHeader(dst, h)
	bitmapOff := len(dst)
	dst = appendZeros(dst, (nb+7)/8)
	dst = appendZeros(dst, 2*nb)
	enc := newBlockEncoder[T, B](errBound, !opts.Unguarded, bs, bitmapOff, bitmapOff+(nb+7)/8)
	var counts blockCounts
	if j == nil {
		// e, not enc, holds the stack tally's address: enc also goes to
		// encodePhases, whose closures escape, and would take the tally to
		// the heap with it.
		e := enc
		var tally telemetry.BlockTally
		if rec {
			e.tally = &tally
		}
		scr := kernels.GetScratch()
		dst = e.encodeBlocks(dst, nil, data, 0, nb, nil, scr)
		kernels.PutScratch(scr)
		if rec {
			tally.Flush()
		}
		counts = e.blockCounts
		if sink != nil {
			sink.RecordSpan("encode", t0, time.Now())
		}
	} else {
		var stats []blockStat
		if rb != nil {
			stats = j.stats
		}
		dst, counts = encodePhases(j, dst, data, stats, enc, chunk, sink, rec)
		parJobPool.Put(j)
	}
	if rec {
		switch {
		case j != nil:
			telemetry.EngineCompressParallel.Inc()
		case workers != 1:
			telemetry.EngineCompressFallback.Inc()
			fallthrough
		default:
			telemetry.EngineCompressSerial.Inc()
		}
		telemetry.RecordCompress(es*len(data), len(dst)-dstBase, tm.Elapsed())
	}
	return dst, Stats{
		Blocks:         nb,
		ConstantBlocks: counts.constant,
		LosslessBlocks: counts.lossless,
		GuardRetries:   counts.retries,
		CompressedSize: len(dst),
		OriginalSize:   es * len(data),
		EffectiveBound: errBound,
	}, nil
}

// blockEncoder carries a call's encoder state across blocks: the bound,
// the block size and where the stream's index lies, and the counts of the
// blocks it encoded.
type blockEncoder[T Float, B Word] struct {
	errBound float64
	eSafe    T
	guarded  bool
	bs       int
	// bitmapOff and zsizeOff are the offsets of the stream's bitmap and
	// zsize table in the output.
	bitmapOff, zsizeOff int
	blockCounts
	// tally, when non-nil, accumulates per-block telemetry (block types,
	// required-bit counts, lead-code distribution) without atomics; the
	// owner flushes it once per call. Nil whenever telemetry is disabled,
	// so the hot loops only ever pay a predictable nil check per block.
	tally *telemetry.BlockTally
}

// blockCounts tallies the blocks a run's Stats report.
type blockCounts struct {
	constant, lossless, retries int
}

func (c *blockCounts) add(o blockCounts) {
	c.constant += o.constant
	c.lossless += o.lossless
	c.retries += o.retries
}

func newBlockEncoder[T Float, B Word](errBound float64, guarded bool, bs, bitmapOff, zsizeOff int) blockEncoder[T, B] {
	// Fast-accept threshold for the guard: a native-width diff below this is
	// safely within the bound even after its own rounding; marginal cases
	// fall through to the exact float64 comparison.
	eSafe := T(errBound * (1 - 1e-6))
	if float64(eSafe) >= errBound {
		// Tiny (subnormal-range) bounds can round eSafe up past the bound;
		// force every value through the exact check instead.
		eSafe = -1
	}
	return blockEncoder[T, B]{errBound: errBound, eSafe: eSafe, guarded: guarded,
		bs: bs, bitmapOff: bitmapOff, zsizeOff: zsizeOff}
}

// encodeBlocks is the codec's one block loop. It appends the payloads of
// blocks [k0, k1) of data to p, and sets each block's bitmap bit and zsize
// entry in the stream's index: in ix, or in p itself when ix is nil. That
// is the one-participant case, where p is the whole stream; the appends
// may move it, so the index is found again after every block. stats, when
// set, holds every block's stats from the stats phase; otherwise each
// block takes its own. The zsize entries cannot overflow: format.go
// asserts at compile time that the largest block payload fits a uint16.
func (enc *blockEncoder[T, B]) encodeBlocks(p, ix []byte, data []T, k0, k1 int, stats []blockStat, scr *kernels.Scratch) []byte {
	bs := enc.bs
	for k := k0; k < k1; k++ {
		blk := data[k*bs : min((k+1)*bs, len(data))]
		var mu T
		var radius float64
		var noNaN bool
		if stats != nil {
			st := &stats[k]
			mu, radius, noNaN = ieee.FromBits[T](B(st.mu)), st.radius, st.noNaN
		} else {
			mu, radius, noNaN = blockStats(blk)
		}
		start := len(p)
		var constant bool
		p, constant = enc.encodeBlock(p, blk, mu, radius, noNaN, scr)
		index := ix
		if index == nil {
			index = p
		}
		binary.LittleEndian.PutUint16(index[enc.zsizeOff+2*k:], uint16(len(p)-start))
		if constant {
			enc.constant++
		} else {
			index[enc.bitmapOff+(k>>3)] |= 1 << uint(k&7)
		}
	}
	return p
}

// encodeBlock appends one block's payload to dst and reports whether the
// block was constant. mu, radius and noNaN are the block's blockStats:
// encodeBlocks takes them just before the call, unless the engine's stats
// phase took them for every block of a relative-bound call.
// Nonconstant payload layout:
//
//	μ (4/8B LE) | reqLength (1B) | leading 2-bit array | mid-bytes
//
// scr and the block are passed as parameters rather than kept in the
// encoder: the kernel call is indirect (through the dispatch table), so
// escape analysis assumes its pointer arguments leak — loading them out of
// the receiver would leak the receiver's contents and force the owner's
// stack-allocated tally to the heap, costing an allocation per compress
// call.
func (enc *blockEncoder[T, B]) encodeBlock(dst []byte, blk []T, mu T, radius float64, noNaN bool, scr *kernels.Scratch) ([]byte, bool) {
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
				// reqLength byte; tallying from the packed form costs three
				// popcounts per 32 values.
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
	out, _, err := appendCompressed[float32, uint32](nil, data, errBound, nil, opts, 1)
	return out, err
}

// CompressFloat32Stats is CompressFloat32 but also reports per-run statistics.
func CompressFloat32Stats(data []float32, errBound float64, opts Options) ([]byte, Stats, error) {
	return appendCompressed[float32, uint32](nil, data, errBound, nil, opts, 1)
}

// CompressFloat64 compresses data with the SZx algorithm under the absolute
// error bound errBound.
func CompressFloat64(data []float64, errBound float64, opts Options) ([]byte, error) {
	out, _, err := appendCompressed[float64, uint64](nil, data, errBound, nil, opts, 1)
	return out, err
}
