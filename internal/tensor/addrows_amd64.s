#include "textflag.h"

// func addRowsKernel(dst []float32, rows []int32, x []float32, marks []uint64)
//
// For each index r of rows, in order, the n = len(x) floats of dst starting
// at r·n get x added, so each row comes out as Add(row, row, x) would leave
// it: per lane the row is loaded into the destination register and x added
// to it, the operand order of addKernel. A repeated index folds twice, the
// second time onto the first result. Every folded row also gets bit r of
// marks set (marks[r/64] |= 1<<(r%64)); no other bit changes.
//
// x is held in registers, not reloaded per row. The columns run in blocks of
// at most 32 floats, and one pass over the rows folds a block into each. A
// whole 32-float block has its own row body: x in X8–X15, the row's eight
// quads loaded into X0–X7, then the eight adds, then the eight stores, with
// no dispatch on the block's width. A shorter block (the last of a width
// that is not a multiple of 32) puts its whole quads in X8–X14 and its last
// 0–3 floats in X5–X7, and each row dispatches on the quad count. At width
// ≤ 32 x is one block, loaded once per call, and the pass covers every row.
// A wider x takes the rows in tiles of 16, every block of x in turn over one
// tile, so a tile's rows stay in L1 between blocks while x is loaded once
// per block per tile instead of once per row. Either way each lane gets its
// adds in row order, so the result is bit-identical to the one-row-at-a-time
// loop.
//
// Each index is checked, in every block, before its row is touched or its
// bit set: the first r < 0, r/64 ≥ len(marks) or (r+1)·n > len(dst) ends
// the row list there, the remaining blocks still fold and mark the rows
// before it, and the call then tail-jumps to addRowsOutOfRange, which
// panics, with no byte outside dst and marks written. A width-0 x still
// makes one pass, so its rows are checked and marked too.
//
// Registers: R9 points at the tile's first index, R14 is the tile's length
// and R10 the indexes left from R9 (both cut at a bad index); DI is dst at
// the block's first column; DX is x at it while the block's x loads, then
// marks while its rows fold (blockDone recomputes x's column from DI's);
// R11 is n; R12 is 16 × the block's whole quads, R13 its 0–3 tail floats.
// AX, BX, CX, SI and R8 are scratch; X0–X7 hold dst lanes in the whole-block
// body, X0–X4 in the other.
TEXT ·addRowsKernel(SB), NOSPLIT, $0-96
	MOVQ rows_base+24(FP), R9
	MOVQ rows_len+32(FP), R10
	MOVQ x_len+56(FP), R11

tile:
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+48(FP), DX
	MOVQ R10, R14
	CMPQ R11, $32
	JBE  block
	CMPQ R14, $16
	JBE  block
	MOVQ $16, R14

block:
	// AX = bytes of x left from DX; the block takes at most 128 of them.
	MOVQ R11, AX
	SHLQ $2, AX
	ADDQ x_base+48(FP), AX
	SUBQ DX, AX
	CMPQ AX, $128
	JBE  sized
	MOVQ $128, AX

sized:
	MOVQ AX, R12
	ANDQ $-16, R12
	MOVQ AX, R13
	ANDQ $15, R13
	SHRQ $2, R13
	CMPQ R12, $128
	JEQ  whole

	// Load the block's quads, highest first, falling through to the lowest.
	CMPQ R12, $112
	JEQ  x7
	CMPQ R12, $96
	JEQ  x6
	CMPQ R12, $80
	JEQ  x5
	CMPQ R12, $64
	JEQ  x4
	CMPQ R12, $48
	JEQ  x3
	CMPQ R12, $32
	JEQ  x2
	CMPQ R12, $16
	JEQ  x1
	JMP  xtail

x7:
	MOVUPS 96(DX), X14
x6:
	MOVUPS 80(DX), X13
x5:
	MOVUPS 64(DX), X12
x4:
	MOVUPS 48(DX), X11
x3:
	MOVUPS 32(DX), X10
x2:
	MOVUPS 16(DX), X9
x1:
	MOVUPS 0(DX), X8

xtail:
	TESTQ R13, R13
	JE    rows
	LEAQ  (DX)(R12*1), BX
	MOVSS 0(BX), X5
	CMPQ  R13, $1
	JEQ   rows
	MOVSS 4(BX), X6
	CMPQ  R13, $2
	JEQ   rows
	MOVSS 8(BX), X7

// ROW checks index CX of the tile, r, sets bit r of marks (DX) and leaves
// SI = &dst[r·n + the block's column]; a bad index jumps to bad with
// nothing written.
#define ROW \
	MOVLQSX (R9)(CX*4), AX; \
	TESTQ   AX, AX; \
	JS      bad; \
	MOVQ    AX, BX; \
	SHRQ    $6, BX; \
	CMPQ    BX, marks_len+80(FP); \
	JAE     bad; \
	MOVQ    AX, SI; \
	IMULQ   R11, SI; \
	LEAQ    (SI)(R11*1), R8; \
	CMPQ    R8, dst_len+8(FP); \
	JA      bad; \
	MOVQ    (DX)(BX*8), R8; \
	BTSQ    AX, R8; \
	MOVQ    R8, (DX)(BX*8); \
	LEAQ    (DI)(SI*4), SI

rows:
	MOVQ marks_base+72(FP), DX
	XORQ CX, CX

row:
	CMPQ CX, R14
	JAE  blockDone
	ROW

	CMPQ R12, $112
	JEQ  q7
	CMPQ R12, $96
	JEQ  q6
	CMPQ R12, $80
	JEQ  q5
	CMPQ R12, $64
	JEQ  q4
	CMPQ R12, $48
	JEQ  q3
	CMPQ R12, $32
	JEQ  q2
	CMPQ R12, $16
	JEQ  q1
	JMP  tail

q7:
	MOVUPS 96(SI), X2
	ADDPS  X14, X2
	MOVUPS X2, 96(SI)
q6:
	MOVUPS 80(SI), X1
	ADDPS  X13, X1
	MOVUPS X1, 80(SI)
q5:
	MOVUPS 64(SI), X0
	ADDPS  X12, X0
	MOVUPS X0, 64(SI)
q4:
	MOVUPS 48(SI), X3
	ADDPS  X11, X3
	MOVUPS X3, 48(SI)
q3:
	MOVUPS 32(SI), X2
	ADDPS  X10, X2
	MOVUPS X2, 32(SI)
q2:
	MOVUPS 16(SI), X1
	ADDPS  X9, X1
	MOVUPS X1, 16(SI)
q1:
	MOVUPS 0(SI), X0
	ADDPS  X8, X0
	MOVUPS X0, 0(SI)

tail:
	TESTQ R13, R13
	JE    next
	LEAQ  (SI)(R12*1), BX
	MOVSS 0(BX), X4
	ADDSS X5, X4
	MOVSS X4, 0(BX)
	CMPQ  R13, $1
	JEQ   next
	MOVSS 4(BX), X4
	ADDSS X6, X4
	MOVSS X4, 4(BX)
	CMPQ  R13, $2
	JEQ   next
	MOVSS 8(BX), X4
	ADDSS X7, X4
	MOVSS X4, 8(BX)

next:
	INCQ CX
	JMP  row

whole:
	// A whole 32-float block: x's eight quads once, then rows that load all
	// eight of theirs before the adds and the stores.
	MOVUPS 0(DX), X8
	MOVUPS 16(DX), X9
	MOVUPS 32(DX), X10
	MOVUPS 48(DX), X11
	MOVUPS 64(DX), X12
	MOVUPS 80(DX), X13
	MOVUPS 96(DX), X14
	MOVUPS 112(DX), X15
	MOVQ   marks_base+72(FP), DX
	XORQ   CX, CX

wholeRow:
	CMPQ CX, R14
	JAE  blockDone
	ROW
	MOVUPS 0(SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS 64(SI), X4
	MOVUPS 80(SI), X5
	MOVUPS 96(SI), X6
	MOVUPS 112(SI), X7
	ADDPS  X8, X0
	ADDPS  X9, X1
	ADDPS  X10, X2
	ADDPS  X11, X3
	ADDPS  X12, X4
	ADDPS  X13, X5
	ADDPS  X14, X6
	ADDPS  X15, X7
	MOVUPS X0, 0(SI)
	MOVUPS X1, 16(SI)
	MOVUPS X2, 32(SI)
	MOVUPS X3, 48(SI)
	MOVUPS X4, 64(SI)
	MOVUPS X5, 80(SI)
	MOVUPS X6, 96(SI)
	MOVUPS X7, 112(SI)
	INCQ   CX
	JMP    wholeRow

bad:
	// Fold only the rows before the bad index, in this block and the next.
	MOVQ CX, R14
	MOVQ CX, R10

blockDone:
	LEAQ (R12)(R13*4), AX // the block's bytes
	ADDQ AX, DI
	MOVQ DI, DX
	SUBQ dst_base+0(FP), DX
	ADDQ x_base+48(FP), DX // x at the next block's column
	MOVQ R11, AX
	SHLQ $2, AX
	ADDQ x_base+48(FP), AX
	CMPQ DX, AX
	JB   block
	LEAQ (R9)(R14*4), R9
	SUBQ R14, R10
	JNZ  tile
	MOVQ R9, AX
	SUBQ rows_base+24(FP), AX
	SHRQ $2, AX
	CMPQ AX, rows_len+32(FP)
	JB   outOfRange
	RET

outOfRange:
	JMP ·addRowsOutOfRange(SB)
