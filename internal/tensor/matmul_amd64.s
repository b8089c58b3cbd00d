// Register tiles behind MatMulBlockedSlices and ConvPlan, and the CPUID
// probes that choose between them. One row-kernel call computes four rows of
// dst = a·B in 4-row register tiles, where a is 4×k and row p of B is read at
// b[off[p] + j]: the row-offset table lets B be a contiguous matrix (off[p] =
// p·n) or the windows of a zero-bordered convolution input read in place
// (off[p] = c·Hp·Wp + kh·Wp + kw). Per p, the vectors B[p, j..] are loaded
// once and each of the four a[i, p] is broadcast and folded in with a packed
// multiply and a packed add. Every output element starts at +0 and receives
// its products for p ascending, one rounded multiply and one rounded add per
// term — no FMA, no reassociation — which is MatMulSlices's chain for that
// element except that a zero a[i, p] is multiplied instead of skipped (see
// MatMulBlockedSlices for why that is the same bits whenever the result is
// finite).
//
// Each tile tests its raw accumulators for ±Inf/NaN, then, given a bias for
// its four rows, stores max(acc + bias[i], +0) — the packed add, then MAXPD
// against +0, which returns its second operand when the first is NaN or both
// are zeros: ReLU's v > 0 ? v : +0 on every value — and otherwise stores the
// accumulators as they are. Row i of dst starts ldd elements after row i−1.
//
// A tile is two halves, one vector register of columns each. The upper half
// reads B hi elements, and stores dst dhi elements, past the lower: with both
// equal to the half's width the tile is one run of contiguous columns; with
// both a row's width minus the half's, a row narrower than a tile is covered
// by two overlapping halves; with hi the distance between two bands of B and
// dhi the half's width, one tile covers two output rows as wide as a half.
//
// matmulRows4 is the SSE2 tile, 4 columns in eight XMM accumulators; SSE2 is
// part of the amd64 baseline. matmulRows4AVX2 is the same fold 8 columns wide
// in eight YMM accumulators, matmulRows4AVX512 16 columns wide in eight ZMM
// accumulators, for hosts where probeTile finds the CPU and OS support.

#include "textflag.h"

// one row of the tile at p: broadcast a[i, p] from AOFF, fold into ACC0/ACC1
#define ROW(AOFF, ACC0, ACC1) \
	MOVSD    AOFF, X10; \
	UNPCKLPD X10, X10; \
	MOVAPD   X10, X11; \
	MULPD    X8, X10; \
	MULPD    X9, X11; \
	ADDPD    X10, ACC0; \
	ADDPD    X11, ACC1

// x − x is +0 for finite x and NaN for ±Inf/NaN: OR it into the X12 flag
#define POISON(ACC) \
	MOVAPD ACC, X10; \
	SUBPD  ACC, X10; \
	ORPD   X10, X12

// one row's epilogue: ACC = max(ACC + bias, +0) with the bias at BOFF and +0
// in X13 as MAXPD's second operand
#define RELU(BOFF, ACC0, ACC1) \
	MOVSD    BOFF, X10; \
	UNPCKLPD X10, X10; \
	ADDPD    X10, ACC0; \
	ADDPD    X10, ACC1; \
	MAXPD    X13, ACC0; \
	MAXPD    X13, ACC1

// func matmulRows4(dst, a, b, bias []float64, off []int, n, ldd, hi, dhi int) (nonFinite bool)
// dst holds four rows at stride ldd, a is 4×k row-major with k = len(off),
// row p of B is read from b at off[p]; bias is empty or holds the four rows'
// biases; each tile is two halves of 2 columns, hi and dhi apart (see
// above); the caller guarantees every access is in bounds and n >= 4. Tiles
// start at columns 0, 4, ..., n&^3 − 4; a ragged remainder is covered by one
// more tile at column n−4, which recomputes up to three columns to the same
// bits. Reports whether any accumulator, before the bias, is ±Inf/NaN.
TEXT ·matmulRows4(SB), NOSPLIT, $0-153
	MOVQ dst_base+0(FP), DI  // tile cursor in dst row 0
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX   // tile cursor: column j of B, before the row offset
	MOVQ off_len+104(FP), CX // k
	MOVQ n+120(FP), R9
	SHRQ $2, R9              // whole tiles
	MOVQ ldd+128(FP), DX
	SHLQ $3, DX              // row stride of dst in bytes
	LEAQ (DX)(DX*2), AX      // 3 rows of dst
	MOVQ CX, R8
	SHLQ $3, R8             // row stride of a in bytes
	LEAQ (R8)(R8*2), R13    // 3 rows of a
	MOVQ hi+136(FP), R15
	SHLQ $3, R15            // the upper half's columns, in bytes past the lower's
	XORPS X12, X12
	XORPS X13, X13

tile:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  off_base+96(FP), R10 // &off[p]
	MOVQ  SI, R11              // &a[0, p]
	MOVQ  CX, R12
	TESTQ R12, R12
	JZ    epilogue

ploop:
	MOVQ   (R10), R14
	LEAQ   (BX)(R14*8), R14 // &B[p, j]
	MOVUPD (R14), X8
	MOVUPD (R14)(R15*1), X9
	ROW((R11), X0, X1)
	ROW((R11)(R8*1), X2, X3)
	ROW((R11)(R8*2), X4, X5)
	ROW((R11)(R13*1), X6, X7)
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   R12
	JNZ    ploop

epilogue:
	POISON(X0)
	POISON(X1)
	POISON(X2)
	POISON(X3)
	POISON(X4)
	POISON(X5)
	POISON(X6)
	POISON(X7)
	MOVQ  bias_len+80(FP), R12
	TESTQ R12, R12
	JZ    store
	MOVQ  bias_base+72(FP), R10
	RELU((R10), X0, X1)
	RELU(8(R10), X2, X3)
	RELU(16(R10), X4, X5)
	RELU(24(R10), X6, X7)

store:
	MOVQ   dhi+144(FP), R11
	LEAQ   (DI)(R11*8), R11 // the upper half's place in dst row 0
	MOVUPD X0, (DI)
	MOVUPD X1, (R11)
	MOVUPD X2, (DI)(DX*1)
	MOVUPD X3, (R11)(DX*1)
	MOVUPD X4, (DI)(DX*2)
	MOVUPD X5, (R11)(DX*2)
	MOVUPD X6, (DI)(AX*1)
	MOVUPD X7, (R11)(AX*1)
	ADDQ   $32, DI
	ADDQ   $32, BX
	DECQ   R9
	JNZ    tile

	// DI stops at the end of row 0 once every column is written; short of
	// it, step back so one last tile ends exactly there
	MOVQ n+120(FP), R9
	SHLQ $3, R9
	ADDQ dst_base+0(FP), R9
	SUBQ DI, R9 // bytes of row 0 not yet covered: 0, 8, 16 or 24
	JZ   done
	SUBQ $32, R9
	ADDQ R9, DI
	ADDQ R9, BX
	MOVQ $1, R9
	JMP  tile

done:
	MOVQ     X12, R9
	UNPCKHPD X12, X12
	MOVQ     X12, R10
	ORQ      R10, R9
	SETNE    nonFinite+152(FP)
	RET

// The AVX2 tile. VEX VMULPD/VADDPD/VMAXPD are lane-wise IEEE double
// operations, as MULPD/ADDPD/MAXPD are, so every element's chain — and its
// bits — is the SSE2 tile's.

// one row of the tile at p: broadcast a[i, p] from AOFF, fold into ACC0/ACC1
#define ROWY(AOFF, ACC0, ACC1) \
	VBROADCASTSD AOFF, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, ACC0, ACC0; \
	VMULPD       Y9, Y10, Y10; \
	VADDPD       Y10, ACC1, ACC1

// x − x is +0 for finite x and NaN for ±Inf/NaN: OR it into the Y12 flag
#define POISONY(ACC) \
	VSUBPD ACC, ACC, Y10; \
	VORPD  Y10, Y12, Y12

// RELU on YMM: Y13 holds +0, MAXPD's second operand
#define RELUY(BOFF, ACC0, ACC1) \
	VBROADCASTSD BOFF, Y10; \
	VADDPD       Y10, ACC0, ACC0; \
	VADDPD       Y10, ACC1, ACC1; \
	VMAXPD       Y13, ACC0, ACC0; \
	VMAXPD       Y13, ACC1, ACC1

// func matmulRows4AVX2(dst, a, b, bias []float64, off []int, n, ldd, hi, dhi int) (nonFinite bool)
// matmulRows4's contract with halves of 4 columns and n >= 8: tiles start at
// columns 0, 8, ..., a ragged remainder at column n−8. The caller has
// checked that the CPU and the OS support AVX2.
TEXT ·matmulRows4AVX2(SB), NOSPLIT, $0-153
	MOVQ   dst_base+0(FP), DI  // tile cursor in dst row 0
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), BX   // tile cursor: column j of B, before the row offset
	MOVQ   off_len+104(FP), CX // k
	MOVQ   n+120(FP), R9
	SHRQ   $3, R9              // whole tiles
	MOVQ   ldd+128(FP), DX
	SHLQ   $3, DX              // row stride of dst in bytes
	LEAQ   (DX)(DX*2), AX      // 3 rows of dst
	MOVQ   CX, R8
	SHLQ   $3, R8             // row stride of a in bytes
	LEAQ   (R8)(R8*2), R13    // 3 rows of a
	MOVQ   hi+136(FP), R15
	SHLQ   $3, R15            // the upper half's columns, in bytes past the lower's
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13

tiley:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   off_base+96(FP), R10 // &off[p]
	MOVQ   SI, R11              // &a[0, p]
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     epilogy

ploopy:
	MOVQ    (R10), R14
	LEAQ    (BX)(R14*8), R14 // &B[p, j]
	VMOVUPD (R14), Y8
	VMOVUPD (R14)(R15*1), Y9
	ROWY((R11), Y0, Y1)
	ROWY((R11)(R8*1), Y2, Y3)
	ROWY((R11)(R8*2), Y4, Y5)
	ROWY((R11)(R13*1), Y6, Y7)
	ADDQ    $8, R10
	ADDQ    $8, R11
	DECQ    R12
	JNZ     ploopy

epilogy:
	POISONY(Y0)
	POISONY(Y1)
	POISONY(Y2)
	POISONY(Y3)
	POISONY(Y4)
	POISONY(Y5)
	POISONY(Y6)
	POISONY(Y7)
	MOVQ  bias_len+80(FP), R12
	TESTQ R12, R12
	JZ    storey
	MOVQ  bias_base+72(FP), R10
	RELUY((R10), Y0, Y1)
	RELUY(8(R10), Y2, Y3)
	RELUY(16(R10), Y4, Y5)
	RELUY(24(R10), Y6, Y7)

storey:
	MOVQ    dhi+144(FP), R11
	LEAQ    (DI)(R11*8), R11 // the upper half's place in dst row 0
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R11)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, (R11)(DX*1)
	VMOVUPD Y4, (DI)(DX*2)
	VMOVUPD Y5, (R11)(DX*2)
	VMOVUPD Y6, (DI)(AX*1)
	VMOVUPD Y7, (R11)(AX*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	DECQ    R9
	JNZ     tiley

	// as in matmulRows4: step back so one last tile ends at the row end
	MOVQ n+120(FP), R9
	SHLQ $3, R9
	ADDQ dst_base+0(FP), R9
	SUBQ DI, R9 // bytes of row 0 not yet covered: 0, 8, ..., 56
	JZ   doney
	SUBQ $64, R9
	ADDQ R9, DI
	ADDQ R9, BX
	MOVQ $1, R9
	JMP  tiley

doney:
	VPTEST Y12, Y12
	SETNE  nonFinite+152(FP)
	VZEROUPPER
	RET

// The AVX-512 tile: the AVX2 tile's fold on ZMM registers. EVEX VMULPD,
// VADDPD and VMAXPD are the same lane-wise IEEE operations again; the integer
// VPXORQ/VPORQ stand in for VXORPD/VORPD, which on ZMM need AVX512DQ.

// one row of the tile at p: broadcast a[i, p] from AOFF, fold into ACC0/ACC1
#define ROWZ(AOFF, ACC0, ACC1) \
	VBROADCASTSD AOFF, Z10; \
	VMULPD       Z8, Z10, Z11; \
	VADDPD       Z11, ACC0, ACC0; \
	VMULPD       Z9, Z10, Z10; \
	VADDPD       Z10, ACC1, ACC1

// x − x is +0 for finite x and NaN for ±Inf/NaN: OR it into the Z12 flag
#define POISONZ(ACC) \
	VSUBPD ACC, ACC, Z10; \
	VPORQ  Z10, Z12, Z12

// RELU on ZMM: Z13 holds +0, MAXPD's second operand
#define RELUZ(BOFF, ACC0, ACC1) \
	VBROADCASTSD BOFF, Z10; \
	VADDPD       Z10, ACC0, ACC0; \
	VADDPD       Z10, ACC1, ACC1; \
	VMAXPD       Z13, ACC0, ACC0; \
	VMAXPD       Z13, ACC1, ACC1

// func matmulRows4AVX512(dst, a, b, bias []float64, off []int, n, ldd, hi, dhi int) (nonFinite bool)
// matmulRows4's contract with halves of 8 columns and n >= 16: tiles start
// at columns 0, 16, ..., a ragged remainder at column n−16. The caller has
// checked that the CPU and the OS support AVX-512F.
TEXT ·matmulRows4AVX512(SB), NOSPLIT, $0-153
	MOVQ   dst_base+0(FP), DI  // tile cursor in dst row 0
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), BX   // tile cursor: column j of B, before the row offset
	MOVQ   off_len+104(FP), CX // k
	MOVQ   n+120(FP), R9
	SHRQ   $4, R9              // whole tiles
	MOVQ   ldd+128(FP), DX
	SHLQ   $3, DX              // row stride of dst in bytes
	LEAQ   (DX)(DX*2), AX      // 3 rows of dst
	MOVQ   CX, R8
	SHLQ   $3, R8             // row stride of a in bytes
	LEAQ   (R8)(R8*2), R13    // 3 rows of a
	MOVQ   hi+136(FP), R15
	SHLQ   $3, R15            // the upper half's columns, in bytes past the lower's
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13

tilez:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   off_base+96(FP), R10 // &off[p]
	MOVQ   SI, R11              // &a[0, p]
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     epilogz

ploopz:
	MOVQ    (R10), R14
	LEAQ    (BX)(R14*8), R14 // &B[p, j]
	VMOVUPD (R14), Z8
	VMOVUPD (R14)(R15*1), Z9
	ROWZ((R11), Z0, Z1)
	ROWZ((R11)(R8*1), Z2, Z3)
	ROWZ((R11)(R8*2), Z4, Z5)
	ROWZ((R11)(R13*1), Z6, Z7)
	ADDQ    $8, R10
	ADDQ    $8, R11
	DECQ    R12
	JNZ     ploopz

epilogz:
	POISONZ(Z0)
	POISONZ(Z1)
	POISONZ(Z2)
	POISONZ(Z3)
	POISONZ(Z4)
	POISONZ(Z5)
	POISONZ(Z6)
	POISONZ(Z7)
	MOVQ  bias_len+80(FP), R12
	TESTQ R12, R12
	JZ    storez
	MOVQ  bias_base+72(FP), R10
	RELUZ((R10), Z0, Z1)
	RELUZ(8(R10), Z2, Z3)
	RELUZ(16(R10), Z4, Z5)
	RELUZ(24(R10), Z6, Z7)

storez:
	MOVQ    dhi+144(FP), R11
	LEAQ    (DI)(R11*8), R11 // the upper half's place in dst row 0
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (R11)
	VMOVUPD Z2, (DI)(DX*1)
	VMOVUPD Z3, (R11)(DX*1)
	VMOVUPD Z4, (DI)(DX*2)
	VMOVUPD Z5, (R11)(DX*2)
	VMOVUPD Z6, (DI)(AX*1)
	VMOVUPD Z7, (R11)(AX*1)
	ADDQ    $128, DI
	ADDQ    $128, BX
	DECQ    R9
	JNZ     tilez

	// as in matmulRows4: step back so one last tile ends at the row end
	MOVQ n+120(FP), R9
	SHLQ $3, R9
	ADDQ dst_base+0(FP), R9
	SUBQ DI, R9 // bytes of row 0 not yet covered: 0, 8, ..., 120
	JZ   donez
	SUBQ $128, R9
	ADDQ R9, DI
	ADDQ R9, BX
	MOVQ $1, R9
	JMP  tilez

donez:
	VEXTRACTF64X4 $1, Z12, Y10
	VORPD         Y10, Y12, Y12
	VPTEST        Y12, Y12
	SETNE         nonFinite+152(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
// The low half of XCR0; the caller has checked OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
