//go:build amd64 && !purego

#include "textflag.h"

// AVX2 encode scans: one fused pass producing, per value,
//
//	w    = bits(p[i] - mu) >> s          (the normalized word)
//	ld   = min(LeadingZeroBytes(w ^ w[i-1]), reqBytes)
//	wsh  = bswap(w << 8*ld)              (mid-bytes, store-ready)
//
// plus an optional vectorized guard fast-check. ld and wsh land in scratch
// arrays, from which the table-driven emit (emit_amd64.s) compacts the
// mid-bytes and packs the lead codes.
//
// The guard accumulates a per-lane failure mask for any value whose
// truncation error is NOT fast-accepted by the two-sided native-width
// compare -eSafe ≤ diff ≤ eSafe; the Go driver falls back to the generic
// kernel for the whole block when the mask is nonzero (a fast-fail is not a
// rejection — the generic path re-checks it exactly — but it is rare enough
// that redoing the block keeps this loop branch-free). NaN diffs fail the
// NLE_UQ compare and so take the fallback, matching the generic ordering
// semantics; the unguarded loop never inspects values, so NaN payloads flow
// through bit-exactly.
//
// Per-lane leading-zero-byte counts have no AVX2 instruction; they are
// summed indicators — lzb(x) = Σ_k [x >> 8k == 0] — which matches
// bits.LeadingZeros/8 exactly for every x, including x == 0 (all
// indicators fire, and the reqBytes clamp brings the count back in range,
// exactly like the generic kernel's cap). The previous-word lane shift is a
// cross-lane rotate with a carry register holding the last word of the
// prior group (zero at block start, matching the generic scan's prev = 0).
//
// VSUBPS/VADDPS here perform the same IEEE-754 single-rounding operations
// as the scalar Go code, so the stored words are bit-identical to the
// generic scan's. Note VMOVQ (VEX), not MOVQ: a legacy-SSE register move
// in AVX2 code costs an upper-state transition (~150ns) on every call.

DATA rotIdxF32<>+0(SB)/4, $7
DATA rotIdxF32<>+4(SB)/4, $0
DATA rotIdxF32<>+8(SB)/4, $1
DATA rotIdxF32<>+12(SB)/4, $2
DATA rotIdxF32<>+16(SB)/4, $3
DATA rotIdxF32<>+20(SB)/4, $4
DATA rotIdxF32<>+24(SB)/4, $5
DATA rotIdxF32<>+28(SB)/4, $6
GLOBL rotIdxF32<>(SB), RODATA|NOPTR, $32

DATA bswapF32<>+0(SB)/8, $0x0405060700010203
DATA bswapF32<>+8(SB)/8, $0x0C0D0E0F08090A0B
DATA bswapF32<>+16(SB)/8, $0x0405060700010203
DATA bswapF32<>+24(SB)/8, $0x0C0D0E0F08090A0B
GLOBL bswapF32<>(SB), RODATA|NOPTR, $32

DATA bswapF64<>+0(SB)/8, $0x0001020304050607
DATA bswapF64<>+8(SB)/8, $0x08090A0B0C0D0E0F
DATA bswapF64<>+16(SB)/8, $0x0001020304050607
DATA bswapF64<>+24(SB)/8, $0x08090A0B0C0D0E0F
GLOBL bswapF64<>(SB), RODATA|NOPTR, $32

// func encNormF32Asm(p *float32, wshp *uint32, ldp *uint32, n int, mu, eSafe, negESafe float32, s, keepMask, reqBytes, guarded uint32) (fail uint32)
// n must be a positive multiple of 8.
TEXT ·encNormF32Asm(SB), NOSPLIT, $0-68
	MOVQ p+0(FP), SI
	MOVQ wshp+8(FP), DI
	MOVQ ldp+16(FP), R8
	MOVQ n+24(FP), CX

	VBROADCASTSS mu+32(FP), Y0
	VBROADCASTSS eSafe+36(FP), Y3
	VBROADCASTSS negESafe+40(FP), Y4
	MOVL         s+44(FP), AX
	VMOVQ        AX, X1
	VBROADCASTSS keepMask+48(FP), Y2
	VBROADCASTSS reqBytes+52(FP), Y13
	VPXOR        Y5, Y5, Y5   // guard-failure accumulator
	VPXOR        Y10, Y10, Y10 // prev-word carry (prev = 0 at block start)
	VPXOR        Y12, Y12, Y12 // zero
	VMOVDQU      rotIdxF32<>(SB), Y14
	VMOVDQU      bswapF32<>(SB), Y15

	MOVL  guarded+56(FP), DX
	TESTL DX, DX
	JZ    f32unguarded

f32guarded:
	VMOVUPS (SI), Y6
	VSUBPS  Y0, Y6, Y7 // v = d - mu
	VPSRLD  X1, Y7, Y8 // w = bits(v) >> s

	VPAND  Y2, Y7, Y9          // kept = bits(v) & keepMask
	VADDPS Y0, Y9, Y9          // rec = kept + mu
	VSUBPS Y6, Y9, Y9          // diff = rec - d
	VCMPPS $0x16, Y3, Y9, Y11  // NLE_UQ: !(diff ≤ eSafe), true on NaN
	VPOR   Y11, Y5, Y5
	VCMPPS $0x11, Y4, Y9, Y11  // LT_OQ: diff < -eSafe
	VPOR   Y11, Y5, Y5

	// xor = w ^ [prev, w0..w6]
	VPERMD   Y8, Y14, Y9
	VPBLENDD $1, Y10, Y9, Y9
	VPXOR    Y9, Y8, Y9
	VPERMQ   $0xFF, Y8, Y10 // carry = w7 (lane 0 after the dword shift)
	VPSRLDQ  $4, Y10, Y10

	// ld = min(Σ_k [xor >> 8k == 0], reqBytes)
	VPXOR    Y6, Y6, Y6
	VPSRLD   $8, Y9, Y7
	VPCMPEQD Y12, Y7, Y7
	VPSUBD   Y7, Y6, Y6
	VPSRLD   $16, Y9, Y7
	VPCMPEQD Y12, Y7, Y7
	VPSUBD   Y7, Y6, Y6
	VPSRLD   $24, Y9, Y7
	VPCMPEQD Y12, Y7, Y7
	VPSUBD   Y7, Y6, Y6
	VPCMPEQD Y12, Y9, Y7
	VPSUBD   Y7, Y6, Y6
	VPMINSD  Y13, Y6, Y6
	VMOVDQU  Y6, (R8)

	// wsh = bswap(w << 8*ld)
	VPSLLD  $3, Y6, Y7
	VPSLLVD Y7, Y8, Y11
	VPSHUFB Y15, Y11, Y11
	VMOVDQU Y11, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $8, CX
	JNE  f32guarded
	JMP  f32done

f32unguarded:
	VMOVUPS (SI), Y6
	VSUBPS  Y0, Y6, Y7
	VPSRLD  X1, Y7, Y8

	VPERMD   Y8, Y14, Y9
	VPBLENDD $1, Y10, Y9, Y9
	VPXOR    Y9, Y8, Y9
	VPERMQ   $0xFF, Y8, Y10
	VPSRLDQ  $4, Y10, Y10

	VPXOR    Y6, Y6, Y6
	VPSRLD   $8, Y9, Y7
	VPCMPEQD Y12, Y7, Y7
	VPSUBD   Y7, Y6, Y6
	VPSRLD   $16, Y9, Y7
	VPCMPEQD Y12, Y7, Y7
	VPSUBD   Y7, Y6, Y6
	VPSRLD   $24, Y9, Y7
	VPCMPEQD Y12, Y7, Y7
	VPSUBD   Y7, Y6, Y6
	VPCMPEQD Y12, Y9, Y7
	VPSUBD   Y7, Y6, Y6
	VPMINSD  Y13, Y6, Y6
	VMOVDQU  Y6, (R8)

	VPSLLD  $3, Y6, Y7
	VPSLLVD Y7, Y8, Y11
	VPSHUFB Y15, Y11, Y11
	VMOVDQU Y11, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $8, CX
	JNE  f32unguarded

f32done:
	VPMOVMSKB Y5, AX
	MOVL      AX, fail+64(FP)
	VZEROUPPER
	RET

// func encNormF64Asm(p *float64, wshp *uint64, ldp *uint64, n int, mu, eSafe, negESafe float64, s, keepMask, reqBytes, guarded uint64) (fail uint64)
// n must be a positive multiple of 4.
TEXT ·encNormF64Asm(SB), NOSPLIT, $0-96
	MOVQ p+0(FP), SI
	MOVQ wshp+8(FP), DI
	MOVQ ldp+16(FP), R8
	MOVQ n+24(FP), CX

	VBROADCASTSD mu+32(FP), Y0
	VBROADCASTSD eSafe+40(FP), Y3
	VBROADCASTSD negESafe+48(FP), Y4
	MOVQ         s+56(FP), AX
	VMOVQ        AX, X1
	VBROADCASTSD keepMask+64(FP), Y2
	VBROADCASTSD reqBytes+72(FP), Y13
	VPXOR        Y5, Y5, Y5
	VPXOR        Y10, Y10, Y10
	VPXOR        Y12, Y12, Y12
	VMOVDQU      bswapF64<>(SB), Y15

	MOVQ  guarded+80(FP), DX
	TESTQ DX, DX
	JZ    f64unguarded

f64guarded:
	VMOVUPD (SI), Y6
	VSUBPD  Y0, Y6, Y7
	VPSRLQ  X1, Y7, Y8

	VPAND  Y2, Y7, Y9
	VADDPD Y0, Y9, Y9
	VSUBPD Y6, Y9, Y9
	VCMPPD $0x16, Y3, Y9, Y11
	VPOR   Y11, Y5, Y5
	VCMPPD $0x11, Y4, Y9, Y11
	VPOR   Y11, Y5, Y5

	// xor = w ^ [prev, w0..w2]
	VPERMQ   $0x90, Y8, Y9
	VPBLENDD $3, Y10, Y9, Y9
	VPXOR    Y9, Y8, Y9
	VPERMQ   $0xFF, Y8, Y10 // carry = w3 in lane 0

	VPXOR    Y6, Y6, Y6
	VPSRLQ   $8, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $16, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $24, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $32, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $40, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $48, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $56, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPCMPEQQ Y12, Y9, Y7
	VPSUBQ   Y7, Y6, Y6

	// clamp (no VPMINSQ in AVX2): ld = acc > reqBytes ? reqBytes : acc
	VPCMPGTQ  Y13, Y6, Y7
	VPBLENDVB Y7, Y13, Y6, Y6
	VMOVDQU   Y6, (R8)

	VPSLLQ  $3, Y6, Y7
	VPSLLVQ Y7, Y8, Y11
	VPSHUFB Y15, Y11, Y11
	VMOVDQU Y11, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JNE  f64guarded
	JMP  f64done

f64unguarded:
	VMOVUPD (SI), Y6
	VSUBPD  Y0, Y6, Y7
	VPSRLQ  X1, Y7, Y8

	VPERMQ   $0x90, Y8, Y9
	VPBLENDD $3, Y10, Y9, Y9
	VPXOR    Y9, Y8, Y9
	VPERMQ   $0xFF, Y8, Y10

	VPXOR    Y6, Y6, Y6
	VPSRLQ   $8, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $16, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $24, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $32, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $40, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $48, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPSRLQ   $56, Y9, Y7
	VPCMPEQQ Y12, Y7, Y7
	VPSUBQ   Y7, Y6, Y6
	VPCMPEQQ Y12, Y9, Y7
	VPSUBQ   Y7, Y6, Y6

	VPCMPGTQ  Y13, Y6, Y7
	VPBLENDVB Y7, Y13, Y6, Y6
	VMOVDQU   Y6, (R8)

	VPSLLQ  $3, Y6, Y7
	VPSLLVQ Y7, Y8, Y11
	VPSHUFB Y15, Y11, Y11
	VMOVDQU Y11, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JNE  f64unguarded

f64done:
	VPMOVMSKB Y5, AX
	MOVQ      AX, fail+88(FP)
	VZEROUPPER
	RET
