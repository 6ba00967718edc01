#include "textflag.h"

// SSE2 bodies of the lane primitives (lanes.go, lanes_amd64.go): one
// amplitude per XMM register; scale and real pair take two amplitudes
// per loop iteration and a one-amplitude tail, the complex pair (eight
// factor registers) one; the Pauli chunk sums take one amplitude of
// each of four lanes. Unaligned loads and stores throughout. MULPD,
// ADDPD and SUBPD only — no FMA, nothing above SSE2.

// func scaleWindowsSSE2(v *float64, amps, period, count int, pr, pi float64)
TEXT ·scaleWindowsSSE2(SB), NOSPLIT, $0-48
	MOVQ	v+0(FP), DI
	MOVQ	amps+8(FP), CX
	MOVQ	period+16(FP), DX
	SHLQ	$3, DX              // period in bytes
	MOVQ	count+24(FP), BX
	MOVSD	pr+32(FP), X0
	UNPCKLPD	X0, X0          // X0 = [pr, pr]
	MOVSD	pi+40(FP), X1
	UNPCKLPD	X1, X1          // X1 = [pi, pi]
	MOVQ	$0x8000000000000000, AX
	MOVQ	AX, X7              // X7 = [sign bit, 0]
	XORPD	X7, X1              // X1 = [-pi, pi]
	TESTQ	BX, BX
	JLE	done

window:
	MOVQ	DI, SI
	MOVQ	CX, AX
	SUBQ	$2, AX
	JL	tail

two:
	MOVUPD	(SI), X2            // [ar, ai]
	MOVUPD	16(SI), X3
	PSHUFD	$0x4e, X2, X4       // [ai, ar]
	PSHUFD	$0x4e, X3, X5
	MULPD	X0, X2              // [ar*pr, ai*pr]
	MULPD	X0, X3
	MULPD	X1, X4              // [ai*-pi, ar*pi]
	MULPD	X1, X5
	ADDPD	X4, X2              // [ar*pr - ai*pi, ai*pr + ar*pi]
	ADDPD	X5, X3
	MOVUPD	X2, (SI)
	MOVUPD	X3, 16(SI)
	ADDQ	$32, SI
	SUBQ	$2, AX
	JGE	two

tail:
	CMPQ	AX, $-1             // -1: one amplitude left, -2: none
	JNE	next
	MOVUPD	(SI), X2
	PSHUFD	$0x4e, X2, X4
	MULPD	X0, X2
	MULPD	X1, X4
	ADDPD	X4, X2
	MOVUPD	X2, (SI)

next:
	ADDQ	DX, DI
	DECQ	BX
	JNZ	window

done:
	RET

// func pairRealSSE2(v *float64, dist, amps, period, count int, r0, r1, r2, r3 float64)
TEXT ·pairRealSSE2(SB), NOSPLIT, $0-72
	MOVQ	v+0(FP), DI
	MOVQ	dist+8(FP), R8
	SHLQ	$3, R8              // dist in bytes
	MOVQ	amps+16(FP), CX
	MOVQ	period+24(FP), DX
	SHLQ	$3, DX              // period in bytes
	MOVQ	count+32(FP), BX
	MOVSD	r0+40(FP), X0
	UNPCKLPD	X0, X0          // X0 = [r0, r0]
	MOVSD	r1+48(FP), X1
	UNPCKLPD	X1, X1
	MOVSD	r2+56(FP), X2
	UNPCKLPD	X2, X2
	MOVSD	r3+64(FP), X3
	UNPCKLPD	X3, X3
	TESTQ	BX, BX
	JLE	done

window:
	MOVQ	DI, SI              // SI: window, R9: partner
	LEAQ	(DI)(R8*1), R9
	MOVQ	CX, AX
	SUBQ	$2, AX
	JL	tail

two:
	MOVUPD	(SI), X4            // a
	MOVUPD	(R9), X5            // b
	MOVUPD	16(SI), X6          // c
	MOVUPD	16(R9), X7          // d
	MOVAPD	X4, X8
	MOVAPD	X5, X9
	MULPD	X0, X4              // r0*a
	MULPD	X1, X9              // r1*b
	MULPD	X2, X8              // r2*a
	MULPD	X3, X5              // r3*b
	ADDPD	X9, X4              // r0*a + r1*b
	ADDPD	X5, X8              // r2*a + r3*b
	MOVAPD	X6, X10
	MOVAPD	X7, X11
	MULPD	X0, X6
	MULPD	X1, X11
	MULPD	X2, X10
	MULPD	X3, X7
	ADDPD	X11, X6
	ADDPD	X7, X10
	MOVUPD	X4, (SI)
	MOVUPD	X8, (R9)
	MOVUPD	X6, 16(SI)
	MOVUPD	X10, 16(R9)
	ADDQ	$32, SI
	ADDQ	$32, R9
	SUBQ	$2, AX
	JGE	two

tail:
	CMPQ	AX, $-1             // -1: one amplitude left, -2: none
	JNE	next
	MOVUPD	(SI), X4
	MOVUPD	(R9), X5
	MOVAPD	X4, X8
	MOVAPD	X5, X9
	MULPD	X0, X4
	MULPD	X1, X9
	MULPD	X2, X8
	MULPD	X3, X5
	ADDPD	X9, X4
	ADDPD	X5, X8
	MOVUPD	X4, (SI)
	MOVUPD	X8, (R9)

next:
	ADDQ	DX, DI
	DECQ	BX
	JNZ	window

done:
	RET

// func pairComplexSSE2(v *float64, dist, amps, period, count int, r0, i0, r1, i1, r2, i2, r3, i3 float64)
//
// Each complex product m·a is a·[re m, re m] + swap(a)·[−im m, im m]:
// [re m·re a − im m·im a, re m·im a + im m·re a], the two groups of
// the scalar form in their order; the two products of a row are then
// added, as the scalar form adds its groups.
TEXT ·pairComplexSSE2(SB), NOSPLIT, $0-104
	MOVQ	v+0(FP), DI
	MOVQ	dist+8(FP), R8
	SHLQ	$3, R8              // dist in bytes
	MOVQ	amps+16(FP), CX
	MOVQ	period+24(FP), DX
	SHLQ	$3, DX              // period in bytes
	MOVQ	count+32(FP), BX
	MOVQ	$0x8000000000000000, AX
	MOVQ	AX, X15             // X15 = [sign bit, 0]
	MOVSD	r0+40(FP), X0
	UNPCKLPD	X0, X0          // X0 = [r0, r0]
	MOVSD	i0+48(FP), X1
	UNPCKLPD	X1, X1
	XORPD	X15, X1             // X1 = [-i0, i0]
	MOVSD	r1+56(FP), X2
	UNPCKLPD	X2, X2
	MOVSD	i1+64(FP), X3
	UNPCKLPD	X3, X3
	XORPD	X15, X3
	MOVSD	r2+72(FP), X4
	UNPCKLPD	X4, X4
	MOVSD	i2+80(FP), X5
	UNPCKLPD	X5, X5
	XORPD	X15, X5
	MOVSD	r3+88(FP), X6
	UNPCKLPD	X6, X6
	MOVSD	i3+96(FP), X7
	UNPCKLPD	X7, X7
	XORPD	X15, X7
	TESTQ	BX, BX
	JLE	done

window:
	MOVQ	DI, SI              // SI: window, R9: partner
	LEAQ	(DI)(R8*1), R9
	MOVQ	CX, AX
	TESTQ	AX, AX
	JLE	next

one:
	MOVUPD	(SI), X8            // a = [ar, ai]
	MOVUPD	(R9), X9            // b = [br, bi]
	PSHUFD	$0x4e, X8, X10      // [ai, ar]
	PSHUFD	$0x4e, X9, X11      // [bi, br]
	MOVAPD	X8, X12
	MULPD	X0, X12             // [r0*ar, r0*ai]
	MOVAPD	X10, X13
	MULPD	X1, X13             // [ai*-i0, ar*i0]
	ADDPD	X13, X12            // m0·a
	MOVAPD	X9, X13
	MULPD	X2, X13
	MOVAPD	X11, X14
	MULPD	X3, X14
	ADDPD	X14, X13            // m1·b
	ADDPD	X13, X12            // m0·a + m1·b
	MULPD	X4, X8
	MULPD	X5, X10
	ADDPD	X10, X8             // m2·a
	MULPD	X6, X9
	MULPD	X7, X11
	ADDPD	X11, X9             // m3·b
	ADDPD	X9, X8              // m2·a + m3·b
	MOVUPD	X12, (SI)
	MOVUPD	X8, (R9)
	ADDQ	$16, SI
	ADDQ	$16, R9
	DECQ	AX
	JNZ	one

next:
	ADDQ	DX, DI
	DECQ	BX
	JNZ	window

done:
	RET

// func pauliChunksSSE2(l *pauliLaneArgs, off, cnt, run, low, sign, flip, kind int)
//
// Two lanes per register: lanes 0 and 1 sum into X10, lanes 2 and 3
// into X11. Per amplitude and lane pair, the two lanes' products
// [ar·pr, ai·pi] (a norm: [ar·ar, ai·ai]; ±i: the partner swapped first,
// [ar·pi, ai·pr]) are transposed by UNPCKLPD/UNPCKHPD into a register
// of first terms and one of second terms, then added (subtracted for
// ±i), doubled for a pair, sign-flipped per lane by XORPD and added to
// the sums — pauliChunksGo's operations, lane by lane. Window pointers
// point at the window's end and one negative index counts up to zero.
//
// pauliLaneArgs: a [4]*float64 at 0, b at 32, sgn [4]uint64 at 64, acc
// [4]float64 at 96 (checked in lanes_amd64.go).
TEXT ·pauliChunksSSE2(SB), NOSPLIT, $0-64
	MOVQ	l+0(FP), DX
	XORPD	X10, X10
	XORPD	X11, X11
	MOVUPD	64(DX), X12         // sgn of lanes 0, 1
	MOVUPD	80(DX), X13         // sgn of lanes 2, 3
	XORQ	BX, BX              // BX: j

window:
	CMPQ	BX, cnt+16(FP)
	JGE	done
	MOVQ	low+32(FP), AX      // CX = b = off | j&low | (j&^low)<<1
	MOVQ	AX, CX
	NOTQ	CX
	ANDQ	BX, CX
	SHLQ	$1, CX
	ANDQ	BX, AX
	ORQ	AX, CX
	ORQ	off+8(FP), CX
	MOVQ	sign+40(FP), AX     // AX = parity(b & sign)
	ANDQ	CX, AX
	MOVQ	AX, DI
	SHRQ	$32, DI
	XORQ	DI, AX
	MOVQ	AX, DI
	SHRQ	$16, DI
	XORQ	DI, AX
	MOVQ	AX, DI
	SHRQ	$8, DI
	XORQ	DI, AX
	MOVQ	AX, DI
	SHRQ	$4, DI
	XORQ	DI, AX
	MOVQ	AX, DI
	SHRQ	$2, DI
	XORQ	DI, AX
	MOVQ	AX, DI
	SHRQ	$1, DI
	XORQ	DI, AX
	ANDQ	$1, AX
	MOVQ	flip+48(FP), DI     // DI = (b^flip + run)·16: partner window end
	XORQ	CX, DI
	ADDQ	run+24(FP), DI
	SHLQ	$4, DI
	ADDQ	run+24(FP), CX      // CX = (b + run)·16: window end
	SHLQ	$4, CX
	CMPQ	kind+56(FP), $2
	JEQ	norm

	SHLQ	$63, AX             // X8, X9: this window's lane signs
	MOVQ	AX, X15
	PUNPCKLQDQ	X15, X15
	MOVAPD	X12, X8
	XORPD	X15, X8
	MOVAPD	X13, X9
	XORPD	X15, X9
	MOVQ	0(DX), SI           // SI, R8, R9, R10: the lanes' windows
	ADDQ	CX, SI
	MOVQ	8(DX), R8
	ADDQ	CX, R8
	MOVQ	16(DX), R9
	ADDQ	CX, R9
	MOVQ	24(DX), R10
	ADDQ	CX, R10
	MOVQ	32(DX), R11         // R11, R12, R13, R14: their partners
	ADDQ	DI, R11
	MOVQ	40(DX), R12
	ADDQ	DI, R12
	MOVQ	48(DX), R13
	ADDQ	DI, R13
	MOVQ	56(DX), R14
	ADDQ	DI, R14
	MOVQ	run+24(FP), AX
	SHLQ	$4, AX
	NEGQ	AX
	CMPQ	kind+56(FP), $1
	JEQ	imag

real:
	MOVUPD	(SI)(AX*1), X0      // lane 0: [ar, ai]
	MOVUPD	(R11)(AX*1), X1     // [pr, pi]
	MULPD	X1, X0              // [ar·pr, ai·pi]
	MOVUPD	(R8)(AX*1), X2      // lane 1
	MOVUPD	(R12)(AX*1), X3
	MULPD	X3, X2
	MOVAPD	X0, X1
	UNPCKLPD	X2, X0          // [ar·pr of lane 0, of lane 1]
	UNPCKHPD	X2, X1          // [ai·pi of lane 0, of lane 1]
	ADDPD	X1, X0
	ADDPD	X0, X0
	XORPD	X8, X0
	ADDPD	X0, X10
	MOVUPD	(R9)(AX*1), X4      // lanes 2 and 3
	MOVUPD	(R13)(AX*1), X5
	MULPD	X5, X4
	MOVUPD	(R10)(AX*1), X6
	MOVUPD	(R14)(AX*1), X7
	MULPD	X7, X6
	MOVAPD	X4, X5
	UNPCKLPD	X6, X4
	UNPCKHPD	X6, X5
	ADDPD	X5, X4
	ADDPD	X4, X4
	XORPD	X9, X4
	ADDPD	X4, X11
	ADDQ	$16, AX
	JNZ	real
	JMP	next

imag:
	MOVUPD	(SI)(AX*1), X0      // lane 0: [ar, ai]
	MOVUPD	(R11)(AX*1), X1
	PSHUFD	$0x4e, X1, X1       // [pi, pr]
	MULPD	X1, X0              // [ar·pi, ai·pr]
	MOVUPD	(R8)(AX*1), X2      // lane 1
	MOVUPD	(R12)(AX*1), X3
	PSHUFD	$0x4e, X3, X3
	MULPD	X3, X2
	MOVAPD	X0, X1
	UNPCKLPD	X2, X0
	UNPCKHPD	X2, X1
	SUBPD	X1, X0              // ar·pi − ai·pr
	ADDPD	X0, X0
	XORPD	X8, X0
	ADDPD	X0, X10
	MOVUPD	(R9)(AX*1), X4      // lanes 2 and 3
	MOVUPD	(R13)(AX*1), X5
	PSHUFD	$0x4e, X5, X5
	MULPD	X5, X4
	MOVUPD	(R10)(AX*1), X6
	MOVUPD	(R14)(AX*1), X7
	PSHUFD	$0x4e, X7, X7
	MULPD	X7, X6
	MOVAPD	X4, X5
	UNPCKLPD	X6, X4
	UNPCKHPD	X6, X5
	SUBPD	X5, X4
	ADDPD	X4, X4
	XORPD	X9, X4
	ADDPD	X4, X11
	ADDQ	$16, AX
	JNZ	imag
	JMP	next

norm:
	SHLQ	$5, AX              // the lanes' reads for this parity: a or b
	ADDQ	DX, AX
	MOVQ	0(AX), SI
	ADDQ	CX, SI
	MOVQ	8(AX), R8
	ADDQ	CX, R8
	MOVQ	16(AX), R9
	ADDQ	CX, R9
	MOVQ	24(AX), R10
	ADDQ	CX, R10
	MOVQ	run+24(FP), AX
	SHLQ	$4, AX
	NEGQ	AX

sq:
	MOVUPD	(SI)(AX*1), X0
	MULPD	X0, X0              // [ar·ar, ai·ai]
	MOVUPD	(R8)(AX*1), X2
	MULPD	X2, X2
	MOVAPD	X0, X1
	UNPCKLPD	X2, X0
	UNPCKHPD	X2, X1
	ADDPD	X1, X0
	ADDPD	X0, X10
	MOVUPD	(R9)(AX*1), X4
	MULPD	X4, X4
	MOVUPD	(R10)(AX*1), X6
	MULPD	X6, X6
	MOVAPD	X4, X5
	UNPCKLPD	X6, X4
	UNPCKHPD	X6, X5
	ADDPD	X5, X4
	ADDPD	X4, X11
	ADDQ	$16, AX
	JNZ	sq

next:
	ADDQ	run+24(FP), BX
	JMP	window

done:
	MOVUPD	X10, 96(DX)
	MOVUPD	X11, 112(DX)
	RET
