//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// addRow's kernel, for rows of one to eight cells; the loop in
// fold_generic.go is what it computes. Registers: R8 points at the
// row, R9 at prev and R10 at next, R11 is next's length (0: no fold),
// SI walks the hops up to DX, DI points at tab[at], CX is the width.
// X0-X3 hold the row's cell pairs and X4 its odd last cell from the
// first hop to the fold, X5 the hop's weight in both lanes, X8-X12 the
// products. Every lane rounds as the scalar MULSD/ADDSD would, and no
// multiply is fused into its add, so each cell gets the bits of the
// plain loop in fold_generic.go.

// HOP loads the hop's source offset into AX and its weight into both
// lanes of X5.
#define HOP \
	MOVQ     hop_src(SI), AX; \
	MOVSD    hop_wg(SI), X5; \
	UNPCKLPD X5, X5

// PAIR adds the weighted source cells at byte off to the pair in acc.
#define PAIR(off, acc, tmp) \
	MOVUPD off(DI)(AX*8), tmp; \
	MULPD  X5, tmp; \
	ADDPD  tmp, acc

// ODD adds the weighted source cell at byte off to the odd cell in X4.
#define ODD(off) \
	MOVSD off(DI)(AX*8), X12; \
	MULSD X5, X12; \
	ADDSD X12, X4

// NEXT steps to the following hop, back to loop while one is left.
#define NEXT(loop) \
	ADDQ $hop__size, SI; \
	CMPQ SI, DX; \
	JNE  loop

// FOLD2 and FOLD1 write next = prev + row for the pair in acc and for
// the odd cell.
#define FOLD2(off, acc) \
	MOVUPD off(R9), X8; \
	ADDPD  acc, X8; \
	MOVUPD X8, off(R10)

#define FOLD1(off) \
	MOVSD off(R9), X8; \
	ADDSD X4, X8; \
	MOVSD X8, off(R10)

// func addHops(row, prev, next []float64, hops []hop, tab []float64, at int)
TEXT ·addHops(SB), NOSPLIT, $0-128
	MOVQ   row_base+0(FP), R8
	MOVQ   row_len+8(FP), CX
	MOVQ   prev_base+24(FP), R9
	MOVQ   next_base+48(FP), R10
	MOVQ   next_len+56(FP), R11
	MOVQ   hops_base+72(FP), SI
	MOVQ   hops_len+80(FP), DX
	MOVQ   tab_base+96(FP), DI
	MOVQ   at+120(FP), AX
	LEAQ   (DI)(AX*8), DI
	IMUL3Q $hop__size, DX, DX
	ADDQ   SI, DX
	CMPQ   CX, $4
	JEQ    w4
	JHI    above4
	CMPQ   CX, $2
	JEQ    w2
	JHI    w3
	JMP    w1

above4:
	CMPQ CX, $6
	JEQ  w6
	JCS  w5
	CMPQ CX, $8
	JEQ  w8
	JMP  w7

w1:
	MOVSD  0(R8), X4
	CMPQ   SI, DX
	JEQ    w1out
w1hop:
	HOP
	ODD(0)
	NEXT(w1hop)
w1out:
	MOVSD  X4, 0(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD1(0)
	RET

w2:
	MOVUPD 0(R8), X0
	CMPQ   SI, DX
	JEQ    w2out
w2hop:
	HOP
	PAIR(0, X0, X8)
	NEXT(w2hop)
w2out:
	MOVUPD X0, 0(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD2(0, X0)
	RET

w3:
	MOVUPD 0(R8), X0
	MOVSD  16(R8), X4
	CMPQ   SI, DX
	JEQ    w3out
w3hop:
	HOP
	PAIR(0, X0, X8)
	ODD(16)
	NEXT(w3hop)
w3out:
	MOVUPD X0, 0(R8)
	MOVSD  X4, 16(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD2(0, X0)
	FOLD1(16)
	RET

w4:
	MOVUPD 0(R8), X0
	MOVUPD 16(R8), X1
	CMPQ   SI, DX
	JEQ    w4out
w4hop:
	HOP
	PAIR(0, X0, X8)
	PAIR(16, X1, X9)
	NEXT(w4hop)
w4out:
	MOVUPD X0, 0(R8)
	MOVUPD X1, 16(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD2(0, X0)
	FOLD2(16, X1)
	RET

w5:
	MOVUPD 0(R8), X0
	MOVUPD 16(R8), X1
	MOVSD  32(R8), X4
	CMPQ   SI, DX
	JEQ    w5out
w5hop:
	HOP
	PAIR(0, X0, X8)
	PAIR(16, X1, X9)
	ODD(32)
	NEXT(w5hop)
w5out:
	MOVUPD X0, 0(R8)
	MOVUPD X1, 16(R8)
	MOVSD  X4, 32(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD2(0, X0)
	FOLD2(16, X1)
	FOLD1(32)
	RET

w6:
	MOVUPD 0(R8), X0
	MOVUPD 16(R8), X1
	MOVUPD 32(R8), X2
	CMPQ   SI, DX
	JEQ    w6out
w6hop:
	HOP
	PAIR(0, X0, X8)
	PAIR(16, X1, X9)
	PAIR(32, X2, X10)
	NEXT(w6hop)
w6out:
	MOVUPD X0, 0(R8)
	MOVUPD X1, 16(R8)
	MOVUPD X2, 32(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD2(0, X0)
	FOLD2(16, X1)
	FOLD2(32, X2)
	RET

w7:
	MOVUPD 0(R8), X0
	MOVUPD 16(R8), X1
	MOVUPD 32(R8), X2
	MOVSD  48(R8), X4
	CMPQ   SI, DX
	JEQ    w7out
w7hop:
	HOP
	PAIR(0, X0, X8)
	PAIR(16, X1, X9)
	PAIR(32, X2, X10)
	ODD(48)
	NEXT(w7hop)
w7out:
	MOVUPD X0, 0(R8)
	MOVUPD X1, 16(R8)
	MOVUPD X2, 32(R8)
	MOVSD  X4, 48(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD2(0, X0)
	FOLD2(16, X1)
	FOLD2(32, X2)
	FOLD1(48)
	RET

w8:
	MOVUPD 0(R8), X0
	MOVUPD 16(R8), X1
	MOVUPD 32(R8), X2
	MOVUPD 48(R8), X3
	CMPQ   SI, DX
	JEQ    w8out
w8hop:
	HOP
	PAIR(0, X0, X8)
	PAIR(16, X1, X9)
	PAIR(32, X2, X10)
	PAIR(48, X3, X11)
	NEXT(w8hop)
w8out:
	MOVUPD X0, 0(R8)
	MOVUPD X1, 16(R8)
	MOVUPD X2, 32(R8)
	MOVUPD X3, 48(R8)
	TESTQ  R11, R11
	JEQ    done
	FOLD2(0, X0)
	FOLD2(16, X1)
	FOLD2(32, X2)
	FOLD2(48, X3)
	RET

done:
	RET
