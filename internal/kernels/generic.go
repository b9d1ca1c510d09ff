package kernels

import (
	"math"

	"repro/internal/bitio"
	"repro/internal/ieee"
)

// The generic kernel set: the portable pure-Go inner loops, extracted
// verbatim from internal/core (traits.go blockStats, encode.go
// encodeNonConstant, decode.go decodeBlock). These are the reference
// implementations every vector set must match byte for byte, and the only
// set available on non-amd64 targets and `purego` builds.

func generic32() Impl32 {
	return Impl32{
		Stats:      statsGeneric[float32],
		EncodeScan: encodeScanGeneric[float32, uint32],
		DecodeScan: decodeScanGeneric[float32, uint32],
	}
}

func generic64() Impl64 {
	return Impl64{
		Stats:      statsGeneric[float64],
		EncodeScan: encodeScanGeneric[float64, uint64],
		DecodeScan: decodeScanGeneric[float64, uint64],
	}
}

// statsGeneric is the two-accumulator unrolled min/max scan: the running
// min/max of the even and odd positions are tracked independently so the two
// compare/select chains overlap instead of serializing on one accumulator,
// and merged at the end. min/max are order-independent for non-NaN values
// and both accumulators skip NaN the same way the sequential scan did (NaN
// compares false), so the results are identical to the single-chain form.
// The NaN-detecting sum deliberately stays a single chain in the original
// order: splitting it could change where an intermediate overflow to ±Inf
// cancels, flipping noNaN on extreme-magnitude data. (That makes noNaN
// sum-based: exact whenever the block holds no ±Inf, which is the only case
// the caller's constant test can reach — see Impl32.Stats.)
func statsGeneric[T ieee.Float](blk []T) (mn, mx T, noNaN bool) {
	mn, mx = blk[0], blk[0]
	mn2, mx2 := mn, mx
	var sum T
	// Slice-advance form (not an indexed `i+2 <= len` loop): the len(rest)
	// compare in the condition is the one shape the compiler's prove pass
	// turns into bounds-check-free constant-index loads.
	rest := blk[1:]
	for len(rest) >= 2 {
		a, b := rest[0], rest[1]
		rest = rest[2:]
		sum += a
		sum += b
		if a < mn {
			mn = a
		}
		if a > mx {
			mx = a
		}
		if b < mn2 {
			mn2 = b
		}
		if b > mx2 {
			mx2 = b
		}
	}
	if len(rest) > 0 {
		v := rest[0]
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn2 < mn {
		mn = mn2
	}
	if mx2 > mx {
		mx = mx2
	}
	return mn, mx, sum == sum
}

// encodeScanGeneric is the normalize+shift+leading-XOR scan. Per value:
// subtract μ, shift the bit pattern right by the byte-padding amount, guard
// the truncation error against the bound (fast two-sided native-width
// compare, exact float64 compare for marginal cases), count leading bytes
// identical to the previous word, and commit the surviving suffix with a
// single full-width big-endian store (byte j of the word sits at bit offset
// 8*(es-1-j), so shifting left by 8*lead aligns byte `lead` with the store's
// first byte). The bytes written past reqBytes-lead are slack: the next
// value's store overwrites them, and the caller's truncation cuts off
// whatever the last value leaves behind — which is why mid must extend es
// bytes past the worst-case payload.
func encodeScanGeneric[T ieee.Float, B ieee.Word](lead, mid []byte, blk []T, mu T, reqLen int,
	guarded bool, eSafe T, errBound float64, scr *Scratch) (int, bool) {
	es := ieee.Width[T]()
	s := uint(ieee.ShiftBits(reqLen))
	reqBytes := (reqLen + int(s)) / 8 // 2..4 for float32, 2..8 for float64
	n := len(blk)

	// Mask of bits that survive truncation (top reqLen bits of the word);
	// used only by the guard check.
	keepMask := ^B(0)
	if reqLen < 8*es {
		keepMask <<= uint(8*es - reqLen)
	}
	negESafe := -eSafe

	// Sliced to n (not the raw array pointer) so the compiler can prove
	// leadBuf[i] in-bounds from the range-over-blk induction: blocks above
	// MaxBlockSize are a caller contract violation and still panic here.
	leadBuf := scr.Lead[:n]
	idx := 0
	var prev B
	for i, d := range blk {
		v := d - mu
		bits := ieee.ToBits[B](v)
		w := bits >> s

		if guarded {
			rec := ieee.FromBits[T](bits&keepMask) + mu
			diff := rec - d
			// Fast-accept is the two-sided native-width compare
			// -eSafe ≤ diff ≤ eSafe (no abs, no float64 conversion); NaN
			// diffs fail both sides and take the exact path (which rejects
			// them), as does the eSafe < 0 sentinel.
			if !(diff <= eSafe && diff >= negESafe) {
				if !(math.Abs(float64(d)-float64(rec)) <= errBound) {
					return 0, false
				}
			}
		}

		ld := bitio.LeadingZeroBytes(w ^ prev)
		if ld > reqBytes {
			ld = reqBytes
		}
		leadBuf[i] = byte(ld)

		ieee.PutBE(mid[idx:], w<<uint(8*ld))
		idx += reqBytes - ld
		prev = w
	}
	// Pack the 2-bit leading codes, four per byte. The staging buffer is
	// zero-padded to the next multiple of four so the packing loop reads
	// unconditionally (a ragged tail contributes zero bits, exactly like the
	// conditional ORs it replaces), and both cursors slice-advance so the
	// loop body carries no bounds checks (len(lb) >= 4 in the condition is
	// the shape prove understands; indexed `i+4 <= len` forms are not).
	lb := scr.Lead[:(n+3)&^3]
	for j := n; j < len(lb); j++ {
		lb[j] = 0
	}
	for out := lead[:bitio.PackedLen(n)]; len(out) > 0 && len(lb) >= 4; out = out[1:] {
		out[0] = lb[0]<<6 | lb[1]<<4 | lb[2]<<2 | lb[3]
		lb = lb[4:]
	}
	return idx, true
}

// decodeScanGeneric reconstructs a nonconstant block. Per value: splice the
// first l bytes of the previous word with the next (reqBytes-l) mid-bytes.
// The mid-bytes are loaded as one big-endian word on the fast path (shift
// counts ≥ width are defined as 0 in Go, so nm == 0 degenerates correctly).
//
// The main loop decodes the packed 2-bit lead codes four at a time: one
// byte load yields all four codes with fixed shifts, instead of
// re-extracting with a value-dependent variable shift per element, and
// a single up-front bound (four values consume at most 4*reqBytes
// mid-bytes, each wide load reads es bytes from its start) hoists the
// per-value length checks out of the group.
func decodeScanGeneric[T ieee.Float, B ieee.Word](out []T, lead, mid []byte, mu T, reqLen int) bool {
	es := ieee.Width[T]()
	n := len(out)
	s := uint(ieee.ShiftBits(reqLen))
	reqBytes := (reqLen + int(s)) / 8
	lossless := reqLen == ieee.FullBits[T]()
	lowSh := uint(8 * (es - reqBytes)) // bit offset of the last stored byte

	masks := spliceMasks[B]()

	if n == 0 {
		return true
	}

	// The main loop walks three slice-advance cursors (o over out, lp over
	// lead, both mirrored by the i counter the tail handoff needs) so the
	// out stores and the lead-byte load carry no bounds checks; only the
	// mid reads keep theirs, because the mid cursor advances by the
	// data-dependent nm and no loop-invariant fact bounds it. lp cannot
	// run out before o does (callers pass PackedLen(n) lead bytes), so the
	// len(lp) clause is a free prove fact, not a semantic change.
	o := out
	lp := lead[:bitio.PackedLen(n)]
	var prev B
	mi := 0
	i := 0
	for len(o) >= 4 && len(lp) > 0 && mi+3*reqBytes+es <= len(mid) {
		lb := lp[0]
		lp = lp[1:]

		l := int(lb >> 6)
		nm := reqBytes - l
		if nm < 0 {
			return false
		}
		chunk := ieee.GetBE[B](mid[mi:]) >> uint(8*(es-nm))
		mi += nm
		w := prev&masks[l] | chunk<<lowSh

		l = int(lb>>4) & 3
		nm = reqBytes - l
		if nm < 0 {
			return false
		}
		chunk = ieee.GetBE[B](mid[mi:]) >> uint(8*(es-nm))
		mi += nm
		w2 := w&masks[l] | chunk<<lowSh

		l = int(lb>>2) & 3
		nm = reqBytes - l
		if nm < 0 {
			return false
		}
		chunk = ieee.GetBE[B](mid[mi:]) >> uint(8*(es-nm))
		mi += nm
		w3 := w2&masks[l] | chunk<<lowSh

		l = int(lb) & 3
		nm = reqBytes - l
		if nm < 0 {
			return false
		}
		chunk = ieee.GetBE[B](mid[mi:]) >> uint(8*(es-nm))
		mi += nm
		w4 := w3&masks[l] | chunk<<lowSh

		prev = w4
		if lossless {
			// Bit-exact path: μ is forced to zero for lossless blocks, and
			// skipping the addition preserves NaN payloads and signed
			// zeros.
			o[0] = ieee.FromBits[T](w)
			o[1] = ieee.FromBits[T](w2)
			o[2] = ieee.FromBits[T](w3)
			o[3] = ieee.FromBits[T](w4)
		} else {
			o[0] = ieee.FromBits[T](w<<s) + mu
			o[1] = ieee.FromBits[T](w2<<s) + mu
			o[2] = ieee.FromBits[T](w3<<s) + mu
			o[3] = ieee.FromBits[T](w4<<s) + mu
		}
		o = o[4:]
		i += 4
	}
	// Tail: the last <4 values and any group whose mid-bytes run too close
	// to the end of the payload for unconditional wide loads.
	return decodeScanTail(out, lead, mid, mu, i, mi, prev, masks, s, lowSh, reqBytes, lossless)
}

// spliceMasks returns masks[l], which keeps the top l bytes of the previous
// word. Precomputed so the per-value splice is a table load instead of a
// variable shift (whose ≥-width guard would sit on the loop's dependency
// chain).
func spliceMasks[B ieee.Word]() (masks [4]B) {
	for l := 1; l < 4; l++ {
		masks[l] = ^(^B(0) >> uint(8*l))
	}
	return masks
}

// decodeScanTail finishes a block from value index i onwards with fully
// bounds-checked narrow loads. It is shared by the generic and vector
// decode kernels: each main loop hands its remainder here, so the two
// paths cannot diverge on tail handling.
func decodeScanTail[T ieee.Float, B ieee.Word](out []T, lead, mid []byte, mu T,
	i, mi int, prev B, masks [4]B, s, lowSh uint, reqBytes int, lossless bool) bool {
	es := ieee.Width[T]()
	for ; i < len(out); i++ {
		l := int(lead[i>>2]>>uint(6-2*(i&3))) & 3
		nm := reqBytes - l
		if nm < 0 {
			return false
		}
		var chunk B
		if mi+es <= len(mid) {
			chunk = ieee.GetBE[B](mid[mi:]) >> uint(8*(es-nm))
		} else {
			if mi+nm > len(mid) {
				return false
			}
			for j := 0; j < nm; j++ {
				chunk = chunk<<8 | B(mid[mi+j])
			}
		}
		mi += nm
		w := prev&masks[l] | chunk<<lowSh
		prev = w
		if lossless {
			out[i] = ieee.FromBits[T](w)
		} else {
			out[i] = ieee.FromBits[T](w<<s) + mu
		}
	}
	return true
}
