#include "textflag.h"

// func addKernel(dst, a, b []float32)
//
// dst[i] = a[i] + b[i], 16 lanes per step, then 4, then one at a time. Each
// lane is loaded from a into the destination register and b is added to it,
// the operand order gc emits for the Go loop (ADDSS b, X0 with X0 = a[i]), so
// NaN payloads propagate as in addGeneric. Every load of a step precedes its
// stores, so dst may be a or b itself. MOVUPS takes unaligned rows. Unequal
// lengths tail-jump to addMismatch, which panics, before any load or store.
TEXT ·addKernel(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	CMPQ a_len+32(FP), CX
	JNE  mismatch
	CMPQ b_len+56(FP), CX
	JNE  mismatch

loop16:
	CMPQ CX, $16
	JB   loop4
	MOVUPS 0(SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS 0(DX), X4
	MOVUPS 16(DX), X5
	MOVUPS 32(DX), X6
	MOVUPS 48(DX), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DX
	ADDQ   $64, DI
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JB     tail
	MOVUPS (SI), X0
	MOVUPS (DX), X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    loop4

tail:
	TESTQ CX, CX
	JE    done
	MOVSS (SI), X0
	ADDSS (DX), X0
	MOVSS X0, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DX
	ADDQ  $4, DI
	DECQ  CX
	JMP   tail

done:
	RET

mismatch:
	JMP ·addMismatch(SB)
