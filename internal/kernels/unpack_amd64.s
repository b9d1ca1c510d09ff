//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// Table-driven AVX2 decode scans. A 16-byte lane holds four float32 or two
// float64 words, whose 2-bit lead codes form the table key: a whole lead
// byte (f32) or a nibble (f64). Per lane:
//
//	w    = PSHUFB(mid[mi:mi+16], shuf[key]) | (carry[key] & bcast(prev))
//	prev = last word of w
//	out  = (w << s) + mu          (raw w for lossless blocks)
//	mi  += adv[key]
//
// decodeLane (avx2_amd64.go) builds shuf/carry/adv from the splice rule, so
// the only loop-carried work is the carry OR and the mi add. The loop runs
// while the lane loads stay inside midCap (mi+16 for f32, mi+32 for f64,
// whose iteration loads two lanes); the Go caller rejects a block whose
// consumption passed len(mid) and hands the rest to the scalar tail. A key
// holding a code above reqBytes (adv = advCorrupt) exits with mi = midCap+1.
// The Go caller guarantees one iteration: n ≥ 4 and midCap ≥ 16 (f32) or 32
// (f64).

// func decodeF32Asm(out *float32, lead *byte, mid *byte, n int, midCap int, mu float32, s uint32, tab *decTab32, lossless bool) (i int, mi int, prev uint32)
TEXT ·decodeF32Asm(SB), NOSPLIT, $0-84
	MOVQ         out+0(FP), DI
	MOVQ         lead+8(FP), SI
	MOVQ         mid+16(FP), BX
	MOVQ         n+24(FP), R10
	MOVQ         midCap+32(FP), R11
	SUBQ         $16, R11 // last mi whose lane load ends inside midCap
	VBROADCASTSS mu+40(FP), X0
	MOVL         s+44(FP), AX
	VMOVD        AX, X1
	VPBROADCASTD X1, X1
	MOVQ         tab+48(FP), R8
	LEAQ         decTab32_adv(R8), R9
	MOVBLZX      lossless+56(FP), R12
	VPXOR        X6, X6, X6 // prev broadcast, 0 at block start
	XORQ         CX, CX     // i
	XORQ         DX, DX     // mi

	PCALIGN $64

f32loop:
	MOVQ    CX, AX
	SHRQ    $2, AX
	MOVBQZX (SI)(AX*1), AX  // lead byte = key
	MOVBQZX (R9)(AX*1), R13 // adv
	CMPQ    R13, $16
	JA      f32corrupt
	SHLQ    $5, AX
	VMOVDQU (BX)(DX*1), X2
	VPSHUFB (R8)(AX*1), X2, X2
	VPAND   16(R8)(AX*1), X6, X3
	VPOR    X3, X2, X2
	VPSHUFD $0xFF, X2, X6
	TESTQ   R12, R12
	JNE     f32store
	VPSLLVD X1, X2, X2
	VADDPS  X0, X2, X2

f32store:
	VMOVDQU X2, (DI)(CX*4)
	ADDQ    R13, DX
	ADDQ    $4, CX
	CMPQ    CX, R10
	JAE     f32done
	CMPQ    DX, R11
	JLE     f32loop

f32done:
	MOVQ  CX, i+64(FP)
	MOVQ  DX, mi+72(FP)
	VMOVD X6, AX
	MOVL  AX, prev+80(FP)
	RET

f32corrupt:
	MOVQ midCap+32(FP), DX
	INCQ DX
	JMP  f32done

// func decodeF64Asm(out *float64, lead *byte, mid *byte, n int, midCap int, mu float64, s uint64, tab *decTab64, lossless bool) (i int, mi int, prev uint64)
TEXT ·decodeF64Asm(SB), NOSPLIT, $0-96
	MOVQ         out+0(FP), DI
	MOVQ         lead+8(FP), SI
	MOVQ         mid+16(FP), BX
	MOVQ         n+24(FP), R10
	MOVQ         midCap+32(FP), R11
	SUBQ         $32, R11 // last mi whose two lane loads end inside midCap
	VBROADCASTSD mu+40(FP), Y0
	VPBROADCASTQ s+48(FP), Y1
	MOVQ         tab+56(FP), R8
	LEAQ         decTab64_adv(R8), R9
	MOVBLZX      lossless+64(FP), R12
	VPXOR        X6, X6, X6
	XORQ         CX, CX
	XORQ         DX, DX

	PCALIGN $64

f64loop:
	MOVQ        CX, AX
	SHRQ        $2, AX
	MOVBQZX     (SI)(AX*1), AX
	MOVQ        AX, R14
	SHRQ        $4, R14          // key of values i, i+1
	ANDQ        $15, AX          // key of values i+2, i+3
	MOVBQZX     (R9)(R14*1), R13
	MOVBQZX     (R9)(AX*1), R15
	CMPQ        R13, $16
	JA          f64corrupt
	CMPQ        R15, $16
	JA          f64corrupt
	SHLQ        $5, R14
	SHLQ        $5, AX
	VMOVDQU     (BX)(DX*1), X2
	VPSHUFB     (R8)(R14*1), X2, X2
	VPAND       16(R8)(R14*1), X6, X3
	VPOR        X3, X2, X2
	VPUNPCKHQDQ X2, X2, X6
	ADDQ        R13, DX
	VMOVDQU     (BX)(DX*1), X4
	VPSHUFB     (R8)(AX*1), X4, X4
	VPAND       16(R8)(AX*1), X6, X3
	VPOR        X3, X4, X4
	VPUNPCKHQDQ X4, X4, X6
	ADDQ        R15, DX
	VINSERTI128 $1, X4, Y2, Y2
	TESTQ       R12, R12
	JNE         f64store
	VPSLLVQ     Y1, Y2, Y2
	VADDPD      Y0, Y2, Y2

f64store:
	VMOVDQU Y2, (DI)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, R10
	JAE     f64done
	CMPQ    DX, R11
	JLE     f64loop

f64done:
	MOVQ  CX, i+72(FP)
	MOVQ  DX, mi+80(FP)
	VMOVQ X6, prev+88(FP)
	VZEROUPPER
	RET

f64corrupt:
	MOVQ midCap+32(FP), DX
	INCQ DX
	JMP  f64done
