//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// addRows's kernel in AVX, for rows of four to eight cells; addRowsGo
// in fold_generic.go is what it computes. A row is two 4-lane halves,
// cells [0, 4) and [w-4, w), which overlap when w < 8 and coincide when
// w = 4: an overlapping cell is computed twice by the same operations,
// so both halves store the same bits. Rows go two at a time, their hop
// lists walked in lockstep up to the shorter one's end, then the longer
// one's rest alone; an odd last row goes alone.
//
// Registers: R10 walks the jobs up to R11, DI points at tab[at] and R12
// at tab[at+w-4], R8 at rows[at] and R9 at cum[at] (0: no fold). SI and
// BX walk the two rows' hops, CX counts them, R13 holds the lockstep
// count. Y0-Y1 and Y2-Y3 hold the two rows' halves from start to store,
// Y4 and Y5 the current hops' weights in every lane, Y6-Y9 the
// products. Every lane rounds as the scalar MULSD/ADDSD would and no
// multiply is fused into its add (there is no FMA here), so each cell
// gets the bits of the plain loop: its start, then its hops in order.

// onehot<> is zero but for its quadword 7: the half at onehot<>+56-8*lane
// masks the half's cell lane, and has no cell set for lane -1.
DATA  onehot<>+56(SB)/8, $0xffffffffffffffff
GLOBL onehot<>(SB), RODATA|NOPTR, $128

// FIRST points cur at the first hop of the job at job(R10).
#define FIRST(job, cur) \
	MOVQ   job+rowJob_first(R10), AX; \
	IMUL3Q $hop__size, AX, AX; \
	MOVQ   hops_base+24(FP), cur; \
	ADDQ   AX, cur

// HALF leaves in DX the byte offset of a row's second half.
#define HALF \
	MOVQ R12, DX; \
	SUBQ DI, DX

// START loads the job's row into lo and hi as a fold starts it: surv
// in cell lane, 0 in every other cell.
#define START(job, lo, hi) \
	HALF; \
	MOVQ         job+rowJob_lane(R10), AX; \
	NEGQ         AX; \
	LEAQ         onehot<>+56(SB), CX; \
	LEAQ         (CX)(AX*8), AX; \
	VBROADCASTSD job+rowJob_surv(R10), hi; \
	VANDPD       (AX), hi, lo; \
	VANDPD       (AX)(DX*1), hi, hi

// LOAD loads the job's row into lo and hi from rows.
#define LOAD(job, lo, hi) \
	HALF; \
	MOVQ    job+rowJob_row(R10), AX; \
	LEAQ    (R8)(AX*8), AX; \
	VMOVUPD (AX), lo; \
	VMOVUPD (AX)(DX*1), hi

// HOP loads the hop at cur: its source offset into src, its weight into
// every lane of wg.
#define HOP(cur, src, wg) \
	MOVQ         hop_src(cur), src; \
	VBROADCASTSD hop_wg(cur), wg

// MAC adds wg times the source cells at src to the halves lo and hi.
#define MAC(src, wg, lo, hi, p0, p1) \
	VMULPD (DI)(src*8), wg, p0; \
	VMULPD (R12)(src*8), wg, p1; \
	VADDPD p0, lo, lo; \
	VADDPD p1, hi, hi

// STORE writes the halves back to the job's row; DX holds HALF.
#define STORE(job, lo, hi) \
	MOVQ    job+rowJob_row(R10), AX; \
	LEAQ    (R8)(AX*8), AX; \
	VMOVUPD lo, (AX); \
	VMOVUPD hi, (AX)(DX*1)

// FOLD writes next = prev + row for the job's cumulative rows, next
// stride cells past prev; DX holds HALF.
#define FOLD(job, lo, hi) \
	MOVQ    job+rowJob_cum(R10), AX; \
	LEAQ    (R9)(AX*8), AX; \
	MOVQ    stride+136(FP), CX; \
	LEAQ    (AX)(CX*8), CX; \
	VADDPD  (AX), lo, Y6; \
	VADDPD  (AX)(DX*1), hi, Y7; \
	VMOVUPD Y6, (CX); \
	VMOVUPD Y7, (CX)(DX*1)

// func addRowsAVX(jobs []rowJob, hops []hop, tab, rows, cum []float64, w, at, stride int)
TEXT ·addRowsAVX(SB), NOSPLIT, $0-144
	MOVQ   jobs_base+0(FP), R10
	MOVQ   jobs_len+8(FP), R11
	IMUL3Q $rowJob__size, R11, R11
	ADDQ   R10, R11
	MOVQ   at+128(FP), AX
	MOVQ   tab_base+48(FP), DI
	LEAQ   (DI)(AX*8), DI
	MOVQ   w+120(FP), CX
	LEAQ   -32(DI)(CX*8), R12
	MOVQ   rows_base+72(FP), R8
	LEAQ   (R8)(AX*8), R8
	XORQ   R9, R9
	CMPQ   cum_len+104(FP), $0
	JEQ    pair
	MOVQ   cum_base+96(FP), R9
	LEAQ   (R9)(AX*8), R9

pair:
	MOVQ  R11, AX
	SUBQ  R10, AX
	CMPQ  AX, $(2*rowJob__size)
	JLT   last
	FIRST(0, SI)
	FIRST(rowJob__size, BX)
	TESTQ R9, R9
	JEQ   pairload
	START(0, Y0, Y1)
	START(rowJob__size, Y2, Y3)
	JMP   pairhops

pairload:
	LOAD(0, Y0, Y1)
	LOAD(rowJob__size, Y2, Y3)

pairhops:
	MOVQ    rowJob_n(R10), R13
	MOVQ    rowJob__size+rowJob_n(R10), CX
	CMPQ    R13, CX
	CMOVQLT R13, CX
	MOVQ    CX, R13
	TESTQ   CX, CX
	JEQ     resta

both:
	HOP(SI, AX, Y4)
	HOP(BX, DX, Y5)
	MAC(AX, Y4, Y0, Y1, Y6, Y7)
	MAC(DX, Y5, Y2, Y3, Y8, Y9)
	ADDQ $hop__size, SI
	ADDQ $hop__size, BX
	DECQ CX
	JNE  both

resta:
	MOVQ rowJob_n(R10), CX
	SUBQ R13, CX
	JEQ  restb

onlya:
	HOP(SI, AX, Y4)
	MAC(AX, Y4, Y0, Y1, Y6, Y7)
	ADDQ $hop__size, SI
	DECQ CX
	JNE  onlya

restb:
	MOVQ rowJob__size+rowJob_n(R10), CX
	SUBQ R13, CX
	JEQ  pairout

onlyb:
	HOP(BX, DX, Y5)
	MAC(DX, Y5, Y2, Y3, Y8, Y9)
	ADDQ $hop__size, BX
	DECQ CX
	JNE  onlyb

pairout:
	HALF
	STORE(0, Y0, Y1)
	STORE(rowJob__size, Y2, Y3)
	TESTQ R9, R9
	JEQ   pairnext
	FOLD(0, Y0, Y1)
	FOLD(rowJob__size, Y2, Y3)

pairnext:
	ADDQ $(2*rowJob__size), R10
	JMP  pair

last:
	CMPQ  R10, R11
	JEQ   done
	FIRST(0, SI)
	TESTQ R9, R9
	JEQ   lastload
	START(0, Y0, Y1)
	JMP   lasthops

lastload:
	LOAD(0, Y0, Y1)

lasthops:
	MOVQ  rowJob_n(R10), CX
	TESTQ CX, CX
	JEQ   lastout

lastloop:
	HOP(SI, AX, Y4)
	MAC(AX, Y4, Y0, Y1, Y6, Y7)
	ADDQ $hop__size, SI
	DECQ CX
	JNE  lastloop

lastout:
	HALF
	STORE(0, Y0, Y1)
	TESTQ R9, R9
	JEQ   done
	FOLD(0, Y0, Y1)

done:
	VZEROUPPER
	RET

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV                // XCR0: the state the OS saves
	ANDL  $6, AX          // XMM (bit 1) and YMM (bit 2)
	CMPL  AX, $6
	JNE   noavx
	MOVB  $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET
