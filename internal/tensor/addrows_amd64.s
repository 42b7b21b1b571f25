#include "textflag.h"

// func addRowsKernel(dst []float32, rows []int32, x []float32)
//
// For each index r of rows, in order, the n = len(x) floats of dst starting
// at r·n get x added, so each row comes out as Add(row, row, x) would leave
// it: per lane the row is loaded into the destination register and x added
// to it, the operand order of addKernel. A repeated index folds twice, the
// second time onto the first result.
//
// x is held in registers, not reloaded per row. The columns run in blocks of
// at most 32 floats: a block's whole quads go to X8–X15 and its last 0–3
// floats to X5–X7, and one pass over the rows folds that block into each.
// At width ≤ 32 x is one block, loaded once per call, and the pass covers
// every row. A wider x takes the rows in tiles of 16, every block of x in
// turn over one tile, so a tile's rows stay in L1 between blocks while x is
// loaded once per block per tile instead of once per row. Either way each
// lane gets its adds in row order, so the result is bit-identical to the
// one-row-at-a-time loop.
//
// Each index is checked, in every block, before its row is touched: the
// first r < 0 or (r+1)·n > len(dst) ends the row list there, the remaining
// blocks still fold the rows before it, and the call then tail-jumps to
// addRowsOutOfRange, which panics, with no byte outside dst written. A
// width-0 x still makes one pass, so a negative index panics there too.
//
// Registers: R9 points at the tile's first index, R14 is the tile's length
// and R10 the indexes left from R9 (both cut at a bad index); DI is dst at
// the block's first column, DX x at it; R8 is len(dst), R11 n; R12 is 16 ×
// the block's whole quads, R13 its 0–3 tail floats. AX, BX, CX and SI are
// scratch; X0–X4 hold dst lanes.
TEXT ·addRowsKernel(SB), NOSPLIT, $0-72
	MOVQ dst_len+8(FP), R8
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

	// Load the block's quads, highest first, falling through to the lowest.
	CMPQ R12, $128
	JEQ  x8
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

x8:
	MOVUPS 112(DX), X15
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

rows:
	XORQ CX, CX

row:
	CMPQ    CX, R14
	JAE     blockDone
	MOVLQSX (R9)(CX*4), AX
	TESTQ   AX, AX
	JS      bad
	IMULQ   R11, AX         // AX = r·n
	LEAQ    (AX)(R11*1), BX // BX = (r+1)·n
	CMPQ    BX, R8
	JA      bad
	LEAQ    (DI)(AX*4), SI  // SI = &dst[r·n + block column]

	CMPQ R12, $128
	JEQ  q8
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

q8:
	MOVUPS 112(SI), X3
	ADDPS  X15, X3
	MOVUPS X3, 112(SI)
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

bad:
	// Fold only the rows before the bad index, in this block and the next.
	MOVQ CX, R14
	MOVQ CX, R10

blockDone:
	LEAQ (R12)(R13*4), AX // the block's bytes
	ADDQ AX, DI
	ADDQ AX, DX
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
