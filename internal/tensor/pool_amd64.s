// The 2×2 max-pool behind ReLUMaxPool2x2, in SSE2 (the amd64 baseline, so
// there is no CPUID choice to make). Each step reads four columns of input
// rows 2oh and 2oh+1 and stores two outputs: MAXPD folds the two rows, an
// UNPCKLPD/UNPCKHPD pair gathers each output's two column maxima into one
// lane, and a second MAXPD folds those. An odd output column count ends the
// row with one single-output step; an odd input row or column is never read.
// See ReLUMaxPool2x2 for why MAXPD is MaxPool2D's window maximum on ReLU'd
// values.

#include "textflag.h"

// func reluMaxPool2x2(out, panel []float64, planes, inH, inW int)
// The caller guarantees len(panel) == planes*inH*inW and
// len(out) == planes*(inH/2)*(inW/2).
TEXT ·reluMaxPool2x2(SB), NOSPLIT, $0-72
	MOVQ  out_base+0(FP), DI
	MOVQ  panel_base+24(FP), SI // plane cursor
	MOVQ  planes+48(FP), CX
	MOVQ  inH+56(FP), R8
	MOVQ  inW+64(FP), DX
	MOVQ  R8, R10
	SHRQ  $1, R8                // outH
	MOVQ  DX, R9
	SHRQ  $1, R9                // outW
	SHLQ  $3, DX                // input row stride in bytes
	IMULQ DX, R10               // plane stride in bytes
	TESTQ CX, CX
	JZ    done
	TESTQ R8, R8
	JZ    done
	TESTQ R9, R9
	JZ    done

plane:
	MOVQ SI, R11 // input row 2oh
	MOVQ R8, R12 // output rows left in the plane

row:
	MOVQ R11, AX // input cursor
	MOVQ R9, BX  // outputs left in the row
	CMPQ BX, $2
	JLT  tail

pair:
	MOVUPD   (AX), X0       // row 2oh, columns 4j, 4j+1
	MOVUPD   16(AX), X1     // row 2oh, columns 4j+2, 4j+3
	MOVUPD   (AX)(DX*1), X2 // row 2oh+1, the same columns
	MOVUPD   16(AX)(DX*1), X3
	MAXPD    X2, X0
	MAXPD    X3, X1
	MOVAPD   X0, X4
	UNPCKLPD X1, X4         // column maxima 4j, 4j+2
	UNPCKHPD X1, X0         // column maxima 4j+1, 4j+3
	MAXPD    X4, X0         // outputs 2j, 2j+1
	MOVUPD   X0, (DI)
	ADDQ     $32, AX
	ADDQ     $16, DI
	SUBQ     $2, BX
	CMPQ     BX, $2
	JGE      pair

tail:
	TESTQ    BX, BX
	JZ       nextrow
	MOVUPD   (AX), X0
	MOVUPD   (AX)(DX*1), X2
	MAXPD    X2, X0
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	MAXSD    X1, X0
	MOVSD    X0, (DI)
	ADDQ     $8, DI

nextrow:
	LEAQ (R11)(DX*2), R11
	DECQ R12
	JNZ  row
	ADDQ R10, SI
	DECQ CX
	JNZ  plane

done:
	RET
