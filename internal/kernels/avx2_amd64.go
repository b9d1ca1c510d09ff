//go:build amd64 && !purego

package kernels

import (
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/bitio"
	"repro/internal/ieee"
)

// The avx2 kernel set: thin Go drivers over the vector loops in
// stats_amd64.s / encode_amd64.s / emit_amd64.s / unpack_amd64.s. Each one
// falls back to the generic loop for blocks too small to fill a vector
// group, and finishes ragged tails with the same scalar code the generic
// set runs, so the two sets stay byte-identical by construction.
func avx232() Impl32 {
	return Impl32{
		Stats:      statsAVX2F32,
		EncodeScan: encodeScanAVX2F32,
		DecodeScan: decodeScanAVX2F32,
	}
}

func avx264() Impl64 {
	return Impl64{
		Stats:      statsAVX2F64,
		EncodeScan: encodeScanAVX2F64,
		DecodeScan: decodeScanAVX2F64,
	}
}

// --- stats -----------------------------------------------------------------

// Implemented in stats_amd64.s. n must be a positive multiple of 16 (f32)
// or 8 (f64); nan is nonzero iff a NaN was seen in p[:n].
//
//go:noescape
func statsF32Asm(p *float32, n int) (mn, mx float32, nan uint32)

//go:noescape
func statsF64Asm(p *float64, n int) (mn, mx float64, nan uint32)

func statsAVX2F32(blk []float32) (mn, mx float32, noNaN bool) {
	m := len(blk) &^ 15
	if m == 0 {
		return statsGeneric(blk)
	}
	mn, mx, nan := statsF32Asm(&blk[0], m)
	hasNaN := nan != 0
	// Scalar tail, same compare semantics as the vector accumulators: a
	// NaN accumulator (seed NaN) is sticky because v < NaN is false.
	for _, v := range blk[m:] {
		if v != v {
			hasNaN = true
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx, !hasNaN
}

func statsAVX2F64(blk []float64) (mn, mx float64, noNaN bool) {
	m := len(blk) &^ 7
	if m == 0 {
		return statsGeneric(blk)
	}
	mn, mx, nan := statsF64Asm(&blk[0], m)
	hasNaN := nan != 0
	for _, v := range blk[m:] {
		if v != v {
			hasNaN = true
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx, !hasNaN
}

// --- encode ----------------------------------------------------------------

// Implemented in encode_amd64.s. n must be a positive multiple of 8 (f32)
// or 4 (f64). The asm writes, per value, the reqBytes-clamped lead count
// into ldp and the byte-swapped shifted word (store-ready mid-bytes) into
// wshp; fail is nonzero iff the guard fast-check rejected any lane.
//
//go:noescape
func encNormF32Asm(p *float32, wshp *uint32, ldp *uint32, n int, mu, eSafe, negESafe float32, s, keepMask, reqBytes, guarded uint32) (fail uint32)

//go:noescape
func encNormF64Asm(p *float64, wshp *uint64, ldp *uint64, n int, mu, eSafe, negESafe float64, s, keepMask, reqBytes, guarded uint64) (fail uint64)

// encodeScanAVX2F32 runs the fused normalize+guard+lead pass in AVX2 into
// scr's word and lead-count buffers, then emits the packed lead array and
// mid-bytes from the staged values (emitF32). Any guard fast-fail (or the
// negative-eSafe sentinel for subnormal bounds) reruns the whole block
// through the generic kernel: the fallback re-applies the exact float64
// check per value, so streams stay byte-identical with fast-fail lanes
// present, and rejected blocks bail out exactly as before.
func encodeScanAVX2F32(lead, mid []byte, blk []float32, mu float32, reqLen int,
	guarded bool, eSafe float32, errBound float64, scr *Scratch) (int, bool) {
	n := len(blk)
	s := uint(ieee.ShiftBits(reqLen))
	reqBytes := (reqLen + int(s)) / 8
	if n < 8 || len(mid) < reqBytes*n+4 || (guarded && !(eSafe >= 0)) {
		return encodeScanGeneric[float32, uint32](lead, mid, blk, mu, reqLen, guarded, eSafe, errBound, scr)
	}
	keepMask := ^uint32(0)
	if reqLen < 32 {
		keepMask <<= uint(32 - reqLen)
	}
	var g uint32
	if guarded {
		g = 1
	}
	// The asm clamp mirrors min(bitio.LeadingZeroBytes*, reqBytes): the
	// 2-bit lead code ceiling of 3 applies before the reqBytes cap.
	clamp := reqBytes
	if clamp > 3 {
		clamp = 3
	}
	m := n &^ 7
	wsh := scr.W32()
	ldv := scr.Ld32()
	if encNormF32Asm(&blk[0], &wsh[0], &ldv[0], m, mu, eSafe, -eSafe, uint32(s), keepMask, uint32(clamp), g) != 0 {
		return encodeScanGeneric[float32, uint32](lead, mid, blk, mu, reqLen, guarded, eSafe, errBound, scr)
	}
	if m < n {
		// Scalar tail: same normalize + guard fast-check + lead/shift math
		// as the vector loop (m ≥ 8, so blk[m-1] exists).
		prev := math.Float32bits(blk[m-1]-mu) >> s
		for i := m; i < n; i++ {
			d := blk[i]
			b := math.Float32bits(d - mu)
			if guarded {
				rec := math.Float32frombits(b&keepMask) + mu
				diff := rec - d
				if !(diff <= eSafe && diff >= -eSafe) {
					return encodeScanGeneric[float32, uint32](lead, mid, blk, mu, reqLen, guarded, eSafe, errBound, scr)
				}
			}
			w := b >> s
			ld := bitio.LeadingZeroBytes32(w ^ prev)
			if ld > reqBytes {
				ld = reqBytes
			}
			ldv[i] = uint32(ld)
			wsh[i] = bits.ReverseBytes32(w << uint(8*ld))
			prev = w
		}
	}
	return emitF32(lead, mid, wsh[:n], ldv[:n], reqBytes), true
}

func encodeScanAVX2F64(lead, mid []byte, blk []float64, mu float64, reqLen int,
	guarded bool, eSafe float64, errBound float64, scr *Scratch) (int, bool) {
	n := len(blk)
	s := uint(ieee.ShiftBits(reqLen))
	reqBytes := (reqLen + int(s)) / 8
	if n < 4 || len(mid) < reqBytes*n+8 || (guarded && !(eSafe >= 0)) {
		return encodeScanGeneric[float64, uint64](lead, mid, blk, mu, reqLen, guarded, eSafe, errBound, scr)
	}
	keepMask := ^uint64(0)
	if reqLen < 64 {
		keepMask <<= uint(64 - reqLen)
	}
	var g uint64
	if guarded {
		g = 1
	}
	clamp := reqBytes
	if clamp > 3 {
		clamp = 3
	}
	m := n &^ 3
	wsh := &scr.W
	ldv := &scr.Ld
	if encNormF64Asm(&blk[0], &wsh[0], &ldv[0], m, mu, eSafe, -eSafe, uint64(s), keepMask, uint64(clamp), g) != 0 {
		return encodeScanGeneric[float64, uint64](lead, mid, blk, mu, reqLen, guarded, eSafe, errBound, scr)
	}
	if m < n {
		prev := math.Float64bits(blk[m-1]-mu) >> s
		for i := m; i < n; i++ {
			d := blk[i]
			b := math.Float64bits(d - mu)
			if guarded {
				rec := math.Float64frombits(b&keepMask) + mu
				diff := rec - d
				if !(diff <= eSafe && diff >= -eSafe) {
					return encodeScanGeneric[float64, uint64](lead, mid, blk, mu, reqLen, guarded, eSafe, errBound, scr)
				}
			}
			w := b >> s
			ld := bitio.LeadingZeroBytes64(w ^ prev)
			if ld > reqBytes {
				ld = reqBytes
			}
			ldv[i] = uint64(ld)
			wsh[i] = bits.ReverseBytes64(w << uint(8*ld))
			prev = w
		}
	}
	return emitF64(lead, mid, wsh[:n], ldv[:n], reqBytes), true
}

// Implemented in emit_amd64.s. Emit whole lead bytes of values while
// i < n and each lane's 16-byte store ends inside midLen, and return how
// far they got: values emitted and mid-bytes written. The Go caller
// guarantees one iteration: n ≥ 4 and midLen ≥ 16 (f32) or 32 (f64).
//
//go:noescape
func emitF32Asm(lead, mid *byte, wsh, ldv *uint32, n, midLen int, tab *encTab32) (i, idx int)

//go:noescape
func emitF64Asm(lead, mid *byte, wsh, ldv *uint64, n, midLen int, tab *encTab64) (i, idx int)

// emitF32 commits the staged float32 values to lead and mid and returns
// the mid length: the table loop while its lane stores fit in mid, then
// the scalar tail.
func emitF32(lead, mid []byte, wsh, ldv []uint32, reqBytes int) int {
	i, idx := 0, 0
	if len(wsh) >= 4 && len(mid) >= 16 {
		i, idx = emitF32Asm(&lead[0], &mid[0], &wsh[0], &ldv[0], len(wsh)&^3, len(mid), &encTabs32[reqBytes-2])
	}
	return emitTail(lead, mid, wsh, ldv, i, idx, reqBytes)
}

func emitF64(lead, mid []byte, wsh, ldv []uint64, reqBytes int) int {
	i, idx := 0, 0
	if len(wsh) >= 4 && len(mid) >= 32 {
		i, idx = emitF64Asm(&lead[0], &mid[0], &wsh[0], &ldv[0], len(wsh)&^3, len(mid), &encTabs64[reqBytes-2])
	}
	return emitTail(lead, mid, wsh, ldv, i, idx, reqBytes)
}

// emitTail commits the staged per-value outputs from value i (a multiple
// of four) onwards, at mid cursor idx: the store-ready word is stored
// verbatim at the cursor (its slack bytes are overwritten by the next
// store, exactly like the generic kernel's wide big-endian store), the
// cursor advances by reqBytes-ld, and the 2-bit lead codes pack four per
// byte. It finishes whatever the table loop leaves: a ragged n%4, and the
// values whose 16-byte lane store would pass the end of a tight mid.
//
// The stores go through unsafe so the cursor chain carries no per-iteration
// bounds checks. Safety: the caller verified len(mid) ≥ reqBytes*n+es, the
// asm/tail clamp every ld into [0, reqBytes], so before store i the cursor
// is ≤ reqBytes*i and the es-byte store ends ≤ reqBytes*n+es.
func emitTail[B uint32 | uint64](lead, mid []byte, wsh, ldv []B, i, idx, reqBytes int) int {
	base := unsafe.Pointer(&mid[0])
	ws, ld := wsh[i:], ldv[i:]
	for j := range ws {
		*(*B)(unsafe.Add(base, idx)) = ws[j]
		idx += reqBytes - int(ld[j])
	}
	for out := lead[i>>2:]; len(ld) > 0; out = out[1:] {
		var b byte
		for sh := 6; sh >= 0 && len(ld) > 0; ld, sh = ld[1:], sh-2 {
			b |= byte(ld[0]) << uint(sh)
		}
		out[0] = b
	}
	return idx
}

// An encode table holds, per reqBytes class and per lead key (laid out as
// for the decode tables), the PSHUFB row that compacts one lane's
// store-ready words into its mid-bytes, and the number of bytes the lane
// emits.
type (
	encTab32 struct {
		shuf [256][16]byte
		adv  [256]byte
	}
	encTab64 struct {
		shuf [16][16]byte
		adv  [16]byte
	}
)

var (
	encTabs32 [3]encTab32 // reqBytes 2..4
	encTabs64 [7]encTab64 // reqBytes 2..8
)

// encodeLane builds the row for one lane of 16/es store-ready staged words
// whose 2-bit lead codes are packed into key, first word in the highest
// bits: word q's bytes [0, reqBytes-l_q) go to the next free output bytes,
// every other byte of the row is 0x80 (zero), and adv is Σ(reqBytes-l_q).
// It is the inverse of decodeLane. Keys holding a code above reqBytes
// cannot occur (the scans clamp every code to reqBytes); their words emit
// nothing.
func encodeLane(es, reqBytes, key int) (shuf [16]byte, adv byte) {
	for p := range shuf {
		shuf[p] = 0x80
	}
	words := 16 / es
	for q := 0; q < words; q++ {
		l := key >> uint(2*(words-1-q)) & 3
		for j := 0; j < reqBytes-l; j++ {
			shuf[adv] = byte(q*es + j)
			adv++
		}
	}
	return shuf, adv
}

// --- decode ----------------------------------------------------------------

// decEntry is one row of a decode table: the PSHUFB mask that moves one
// 16-byte lane's mid-bytes into place, and the mask of the bytes the lane
// inherits from the previous lane's last word.
type decEntry struct{ shuf, carry [16]byte }

// A decode table holds, per reqBytes class and per lead key (a whole lead
// byte for float32, four words per lane; a nibble for float64, two words
// per lane), the lane's row and the number of mid-bytes the lane consumes,
// or advCorrupt when a code in the key exceeds reqBytes.
type (
	decTab32 struct {
		e   [256]decEntry
		adv [256]byte
	}
	decTab64 struct {
		e   [16]decEntry
		adv [16]byte
	}
)

const advCorrupt = 0xFF

var (
	decTabs32 [3]decTab32 // reqBytes 2..4
	decTabs64 [7]decTab64 // reqBytes 2..8
)

// init fills the encode and decode tables. It is an init function because
// variable initializers compile to code the linker places ahead of the
// encode scans, shifting their alignment.
func init() {
	for rb := range encTabs32 {
		for k := range encTabs32[rb].shuf {
			encTabs32[rb].shuf[k], encTabs32[rb].adv[k] = encodeLane(4, rb+2, k)
		}
	}
	for rb := range encTabs64 {
		for k := range encTabs64[rb].shuf {
			encTabs64[rb].shuf[k], encTabs64[rb].adv[k] = encodeLane(8, rb+2, k)
		}
	}
	for rb := range decTabs32 {
		for k := range decTabs32[rb].e {
			decTabs32[rb].e[k], decTabs32[rb].adv[k] = decodeLane(4, rb+2, k)
		}
	}
	for rb := range decTabs64 {
		for k := range decTabs64[rb].e {
			decTabs64[rb].e[k], decTabs64[rb].adv[k] = decodeLane(8, rb+2, k)
		}
	}
}

// decodeLane builds the row for one lane of 16/es words whose 2-bit lead
// codes are packed into key, first word in the highest bits. Big-endian
// byte j of word q comes from the latest word r ≤ q with l_r ≤ j, at mid
// offset (bytes consumed before r) + j - l_r; with no such word in the lane
// it comes from the previous lane's last word (carry); bytes at or past
// reqBytes are zero.
func decodeLane(es, reqBytes, key int) (e decEntry, adv byte) {
	words := 16 / es
	off := 0
	for q := 0; q < words; q++ {
		l := key >> uint(2*(words-1-q)) & 3
		if l > reqBytes {
			return decEntry{}, advCorrupt
		}
		for j := 0; j < es; j++ {
			p := q*es + es - 1 - j // little-endian position of byte j
			switch {
			case j >= reqBytes:
				e.shuf[p] = 0x80
			case j >= l:
				e.shuf[p] = byte(off + j - l)
			case q == 0:
				e.shuf[p], e.carry[p] = 0x80, 0xFF
			default:
				e.shuf[p], e.carry[p] = e.shuf[p-es], e.carry[p-es]
			}
		}
		off += reqBytes - l
	}
	return e, byte(off)
}

// Implemented in unpack_amd64.s. Decode whole lead bytes of values while
// i < n and the lane loads stay inside midCap, and return how far they got:
// values decoded, mid-bytes consumed and the last reconstructed word. A
// code above reqBytes returns mi = midCap+1.
//
//go:noescape
func decodeF32Asm(out *float32, lead, mid *byte, n, midCap int, mu float32, s uint32, tab *decTab32, lossless bool) (i, mi int, prev uint32)

//go:noescape
func decodeF64Asm(out *float64, lead, mid *byte, n, midCap int, mu float64, s uint64, tab *decTab64, lossless bool) (i, mi int, prev uint64)

// decodeScanAVX2F32 runs the table loop over mid's capacity, not just its
// length: the loop may load bytes past len(mid), but a block that consumed
// them is corrupt, so they reach neither the values nor the verdict. The
// remainder goes to the shared scalar tail.
func decodeScanAVX2F32(out []float32, lead, mid []byte, mu float32, reqLen int) bool {
	n := len(out)
	s := uint(ieee.ShiftBits(reqLen))
	reqBytes := (reqLen + int(s)) / 8
	lossless := reqLen == ieee.FullBits[float32]()
	i, mi, prev := 0, 0, uint32(0)
	if n >= 4 && cap(mid) >= 16 {
		i, mi, prev = decodeF32Asm(&out[0], &lead[0], unsafe.SliceData(mid), n&^3, cap(mid),
			mu, uint32(s), &decTabs32[reqBytes-2], lossless)
		if mi > len(mid) {
			return false
		}
		if i == n {
			return true
		}
	}
	return decodeScanTail(out, lead, mid, mu, i, mi, prev, spliceMasks[uint32](), s, uint(32-8*reqBytes), reqBytes, lossless)
}

func decodeScanAVX2F64(out []float64, lead, mid []byte, mu float64, reqLen int) bool {
	n := len(out)
	s := uint(ieee.ShiftBits(reqLen))
	reqBytes := (reqLen + int(s)) / 8
	lossless := reqLen == ieee.FullBits[float64]()
	i, mi, prev := 0, 0, uint64(0)
	if n >= 4 && cap(mid) >= 32 {
		i, mi, prev = decodeF64Asm(&out[0], &lead[0], unsafe.SliceData(mid), n&^3, cap(mid),
			mu, uint64(s), &decTabs64[reqBytes-2], lossless)
		if mi > len(mid) {
			return false
		}
		if i == n {
			return true
		}
	}
	return decodeScanTail(out, lead, mid, mu, i, mi, prev, spliceMasks[uint64](), s, uint(64-8*reqBytes), reqBytes, lossless)
}
