#include "textflag.h"

// EltMax and EltMin select, per lane, a[i] or b[i] by the Go loop's own
// rule: max keeps a where a[i] >= b[i], min keeps a where a[i] <= b[i], and
// both take b otherwise. CMPPS with predicate 2 (ordered LE, false when
// either lane is NaN) builds that condition as an all-ones or all-zeros lane
// mask m, written as b <= a for max and a <= b for min, and
// (a AND m) OR (b ANDNOT m) then copies the chosen operand's bits. No lane is
// computed, so ±0 ties and NaN payloads come out exactly as in the Go loop.
// MAXPS/MINPS are not used: they return their second operand on ties and
// NaN, which is not the Go loop's choice.

// MAXLANES(a, b, m) leaves max(a, b) per lane in a; m is clobbered.
#define MAXLANES(a, b, m) \
	MOVAPS b, m;        \
	CMPPS  a, m, $2;    \
	ANDPS  m, a;        \
	ANDNPS b, m;        \
	ORPS   m, a

// MINLANES(a, b, m) leaves min(a, b) per lane in a; m is clobbered.
#define MINLANES(a, b, m) \
	MOVAPS a, m;        \
	CMPPS  b, m, $2;    \
	ANDPS  m, a;        \
	ANDNPS b, m;        \
	ORPS   m, a

// SELECT(LANES) is the shared body: 16 lanes per step, then 4, then one at a
// time (MOVSS zeroes the upper lanes, which are blended and never stored).
// Every load of a step precedes its stores, so dst may be a or b itself.
// MOVUPS takes unaligned rows. Unequal lengths jump to mismatch before any
// load or store.
#define SELECT(LANES) \
	MOVQ dst_base+0(FP), DI; \
	MOVQ dst_len+8(FP), CX;  \
	MOVQ a_base+24(FP), SI;  \
	MOVQ b_base+48(FP), DX;  \
	CMPQ a_len+32(FP), CX;   \
	JNE  mismatch;           \
	CMPQ b_len+56(FP), CX;   \
	JNE  mismatch;           \
loop16:                      \
	CMPQ   CX, $16;          \
	JB     loop4;            \
	MOVUPS 0(SI), X0;        \
	MOVUPS 16(SI), X1;       \
	MOVUPS 32(SI), X2;       \
	MOVUPS 48(SI), X3;       \
	MOVUPS 0(DX), X4;        \
	MOVUPS 16(DX), X5;       \
	MOVUPS 32(DX), X6;       \
	MOVUPS 48(DX), X7;       \
	LANES(X0, X4, X8);       \
	LANES(X1, X5, X9);       \
	LANES(X2, X6, X10);      \
	LANES(X3, X7, X11);      \
	MOVUPS X0, 0(DI);        \
	MOVUPS X1, 16(DI);       \
	MOVUPS X2, 32(DI);       \
	MOVUPS X3, 48(DI);       \
	ADDQ   $64, SI;          \
	ADDQ   $64, DX;          \
	ADDQ   $64, DI;          \
	SUBQ   $16, CX;          \
	JMP    loop16;           \
loop4:                       \
	CMPQ   CX, $4;           \
	JB     tail;             \
	MOVUPS (SI), X0;         \
	MOVUPS (DX), X1;         \
	LANES(X0, X1, X2);       \
	MOVUPS X0, (DI);         \
	ADDQ   $16, SI;          \
	ADDQ   $16, DX;          \
	ADDQ   $16, DI;          \
	SUBQ   $4, CX;           \
	JMP    loop4;            \
tail:                        \
	TESTQ CX, CX;            \
	JE    done;              \
	MOVSS (SI), X0;          \
	MOVSS (DX), X1;          \
	LANES(X0, X1, X2);       \
	MOVSS X0, (DI);          \
	ADDQ  $4, SI;            \
	ADDQ  $4, DX;            \
	ADDQ  $4, DI;            \
	DECQ  CX;                \
	JMP   tail;              \
done:                        \
	RET

// func eltMaxKernel(dst, a, b []float32)
TEXT ·eltMaxKernel(SB), NOSPLIT, $0-72
	SELECT(MAXLANES)

mismatch:
	JMP ·eltMaxMismatch(SB)

// func eltMinKernel(dst, a, b []float32)
TEXT ·eltMinKernel(SB), NOSPLIT, $0-72
	SELECT(MINLANES)

mismatch:
	JMP ·eltMinMismatch(SB)
