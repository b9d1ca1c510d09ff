//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// Table-driven AVX2 encode emit: the inverse of the decode tables in
// unpack_amd64.s, over the words and lead counts the encode scans
// (encode_amd64.s) stage in scratch. Per 16-byte lane of store-ready words
// (four float32 or two float64):
//
//	key  = the lane's 2-bit lead codes, first word in the highest bits
//	mid[idx:idx+16] = PSHUFB(wsh lane, shuf[key])
//	idx += adv[key]
//
// encodeLane (avx2_amd64.go) builds shuf/adv, so each word's kept bytes
// land right after the previous word's and the row's remaining bytes are
// zeros the next store overwrites. An iteration handles four values and
// stores their lead byte. The loop runs while each 16-byte store ends
// inside midLen (idx+16 for f32, idx+32 for f64, whose iteration stores
// two lanes of at most 16 bytes each); the Go caller hands the rest to the
// scalar tail. The Go caller guarantees one iteration: n ≥ 4 and
// midLen ≥ 16 (f32) or 32 (f64).

// func emitF32Asm(lead *byte, mid *byte, wsh *uint32, ldv *uint32, n int, midLen int, tab *encTab32) (i int, idx int)
TEXT ·emitF32Asm(SB), NOSPLIT, $0-72
	MOVQ lead+0(FP), DI
	MOVQ mid+8(FP), SI
	MOVQ wsh+16(FP), BX
	MOVQ ldv+24(FP), R8
	MOVQ n+32(FP), R10
	MOVQ midLen+40(FP), R11
	SUBQ $16, R11 // last idx whose lane store ends inside midLen
	MOVQ tab+48(FP), R9
	LEAQ encTab32_adv(R9), R12
	XORQ CX, CX // i
	XORQ DX, DX // idx

	PCALIGN $64

f32loop:
	MOVL    (R8)(CX*4), AX
	MOVL    4(R8)(CX*4), R13
	MOVL    8(R8)(CX*4), R14
	MOVL    12(R8)(CX*4), R15
	LEAL    (R13)(AX*4), AX
	LEAL    (R14)(AX*4), AX
	LEAL    (R15)(AX*4), AX // key = lead byte
	MOVB    AX, (DI)
	INCQ    DI
	MOVBQZX (R12)(AX*1), R13 // adv
	SHLQ    $4, AX
	VMOVDQU (BX)(CX*4), X0
	VPSHUFB (R9)(AX*1), X0, X0
	VMOVDQU X0, (SI)(DX*1)
	ADDQ    R13, DX
	ADDQ    $4, CX
	CMPQ    CX, R10
	JAE     f32done
	CMPQ    DX, R11
	JLE     f32loop

f32done:
	MOVQ CX, i+56(FP)
	MOVQ DX, idx+64(FP)
	RET

// func emitF64Asm(lead *byte, mid *byte, wsh *uint64, ldv *uint64, n int, midLen int, tab *encTab64) (i int, idx int)
TEXT ·emitF64Asm(SB), NOSPLIT, $0-72
	MOVQ lead+0(FP), DI
	MOVQ mid+8(FP), SI
	MOVQ wsh+16(FP), BX
	MOVQ ldv+24(FP), R8
	MOVQ n+32(FP), R10
	MOVQ midLen+40(FP), R11
	SUBQ $32, R11 // last idx whose two lane stores end inside midLen
	MOVQ tab+48(FP), R9
	LEAQ encTab64_adv(R9), R12
	XORQ CX, CX
	XORQ DX, DX

	PCALIGN $64

f64loop:
	MOVQ    (R8)(CX*8), AX
	MOVQ    8(R8)(CX*8), R13
	MOVQ    16(R8)(CX*8), R14
	MOVQ    24(R8)(CX*8), R15
	LEAQ    (R13)(AX*4), AX   // key of values i, i+1
	LEAQ    (R15)(R14*4), R14 // key of values i+2, i+3
	MOVQ    AX, R13
	SHLQ    $4, R13
	ORQ     R14, R13
	MOVB    R13, (DI)
	INCQ    DI
	MOVBQZX (R12)(AX*1), R13
	MOVBQZX (R12)(R14*1), R15
	SHLQ    $4, AX
	SHLQ    $4, R14
	VMOVDQU (BX)(CX*8), X0
	VPSHUFB (R9)(AX*1), X0, X0
	VMOVDQU X0, (SI)(DX*1)
	ADDQ    R13, DX
	VMOVDQU 16(BX)(CX*8), X1
	VPSHUFB (R9)(R14*1), X1, X1
	VMOVDQU X1, (SI)(DX*1)
	ADDQ    R15, DX
	ADDQ    $4, CX
	CMPQ    CX, R10
	JAE     f64done
	CMPQ    DX, R11
	JLE     f64loop

f64done:
	MOVQ CX, i+56(FP)
	MOVQ DX, idx+64(FP)
	RET
