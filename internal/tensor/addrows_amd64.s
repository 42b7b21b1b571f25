#include "textflag.h"

// func addRowsKernel(dst []float32, rows []int32, x []float32)
//
// For each index r of rows, in order, the n = len(x) floats of dst starting
// at r·n get x added: the lane loop of addKernel (16 lanes per step, then 4,
// then one at a time, the row lane loaded into the destination register and
// x added to it), so each row comes out as Add(row, row, x) would leave it.
// A repeated index folds twice, the second time onto the first result.
// Each index is checked before its row is touched: r < 0 or (r+1)·n >
// len(dst) tail-jumps to addRowsOutOfRange, which panics, with the rows
// before it folded and no byte outside dst written.
TEXT ·addRowsKernel(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ rows_base+24(FP), R9
	MOVQ rows_len+32(FP), R10
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R11

row:
	TESTQ   R10, R10
	JE      done
	MOVLQSX (R9), AX
	TESTQ   AX, AX
	JS      outOfRange
	IMULQ   R11, AX         // AX = r·n
	LEAQ    (AX)(R11*1), BX // BX = (r+1)·n
	CMPQ    BX, R8
	JA      outOfRange
	LEAQ    (DI)(AX*4), SI  // SI = &dst[r·n]
	MOVQ    DX, BX          // BX = &x[0]
	MOVQ    R11, CX

loop16:
	CMPQ   CX, $16
	JB     loop4
	MOVUPS 0(SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS 0(BX), X4
	MOVUPS 16(BX), X5
	MOVUPS 32(BX), X6
	MOVUPS 48(BX), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, 0(SI)
	MOVUPS X1, 16(SI)
	MOVUPS X2, 32(SI)
	MOVUPS X3, 48(SI)
	ADDQ   $64, SI
	ADDQ   $64, BX
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JB     tail
	MOVUPS (SI), X0
	MOVUPS (BX), X1
	ADDPS  X1, X0
	MOVUPS X0, (SI)
	ADDQ   $16, SI
	ADDQ   $16, BX
	SUBQ   $4, CX
	JMP    loop4

tail:
	TESTQ CX, CX
	JE    next
	MOVSS (SI), X0
	ADDSS (BX), X0
	MOVSS X0, (SI)
	ADDQ  $4, SI
	ADDQ  $4, BX
	DECQ  CX
	JMP   tail

next:
	ADDQ $4, R9
	DECQ R10
	JMP  row

done:
	RET

outOfRange:
	JMP ·addRowsOutOfRange(SB)
