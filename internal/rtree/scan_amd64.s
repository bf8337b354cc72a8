#include "textflag.h"

// func scanNode(es []page.Entry, q geom.Rect) uint64
//
// An entry is 48 bytes with its MBR first: [MinX, MinY] at offset 0 and
// [MaxX, MaxY] at offset 16 (TestScanLayout). Per entry, two packed
// CMPPD LE (ordered, so false on NaN, as Go's <=) give
// [MinX ≤ q.MaxX, MinY ≤ q.MaxY] and [q.MinX ≤ MaxX, q.MinY ≤ MaxY]; their
// AND holds on both lanes exactly when the entry meets q. The entries are
// walked from last to first, so each step shifts the mask up and ORs in
// its own bits at the bottom: bit i ends as entry i's.
TEXT ·scanNode(SB), NOSPLIT, $0-64
	MOVQ	es_base+0(FP), SI
	MOVQ	es_len+8(FP), CX
	MOVUPD	q_MinX+24(FP), X0	// [q.MinX, q.MinY]
	MOVUPD	q_MaxX+40(FP), X1	// [q.MaxX, q.MaxY]
	XORL	AX, AX
	IMUL3Q	$48, CX, DX
	ADDQ	SI, DX	// DX: one past the last entry
	TESTQ	$1, CX
	JZ	pairs

	// An odd count: the last entry alone.
	SUBQ	$48, DX
	MOVUPD	0(DX), X2
	MOVUPD	16(DX), X3
	MOVAPD	X0, X4
	CMPPD	X1, X2, $2	// [MinX ≤ q.MaxX, MinY ≤ q.MaxY]
	CMPPD	X3, X4, $2	// [q.MinX ≤ MaxX, q.MinY ≤ MaxY]
	ANDPD	X4, X2
	MOVMSKPD	X2, AX	// 3 exactly when the entry meets q
	INCL	AX
	SHRL	$2, AX	// 1 exactly when it was 3

pairs:
	CMPQ	DX, SI
	JEQ	done
	SUBQ	$96, DX	// entries i (at DX) and i+1 (at DX+48)
	MOVUPD	0(DX), X2
	MOVUPD	16(DX), X3
	MOVUPD	48(DX), X4
	MOVUPD	64(DX), X5
	MOVAPD	X0, X6
	MOVAPD	X0, X7
	CMPPD	X1, X2, $2
	CMPPD	X3, X6, $2
	CMPPD	X1, X4, $2
	CMPPD	X5, X7, $2
	ANDPD	X6, X2	// [x, y] of entry i
	ANDPD	X7, X4	// [x, y] of entry i+1
	MOVAPD	X2, X6
	UNPCKLPD	X4, X2	// [x of i, x of i+1]
	UNPCKHPD	X4, X6	// [y of i, y of i+1]
	ANDPD	X6, X2
	MOVMSKPD	X2, BX	// bit 0: entry i, bit 1: entry i+1
	SHLQ	$2, AX
	ORQ	BX, AX
	JMP	pairs

done:
	MOVQ	AX, ret+56(FP)
	RET
