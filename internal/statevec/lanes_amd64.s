#include "textflag.h"

// Assembly bodies of the lane primitives (lanes.go, lanes_amd64.go), in
// two sets: SSE2, which every amd64 CPU runs, and AVX, which
// lanes_amd64.go picks at init where hasAVX finds the CPU and the OS
// support it. scaleWindows has no body of its own: it is scaleTable's
// row of one entry. Unaligned loads and stores throughout, and no FMA:
// every lane is one IEEE 754 multiply, add or subtract of the scalar
// form's operands (lanes.go).
//
// The SSE2 bodies hold one amplitude per XMM register: a table row of
// one entry or read once per window and the real pair take two
// amplitudes per loop iteration and a one-amplitude tail, the complex
// pair (eight factor registers) and a repeated table row one; the Pauli
// chunk sums take one amplitude of each of four lanes. MULPD, ADDPD and
// SUBPD only, nothing above SSE2.
//
// The AVX bodies (scaleTable, pairReal) hold two amplitudes per YMM
// register and take one register per loop iteration
// and a one-amplitude tail on VEX-encoded XMM registers. Nothing above
// AVX: VMULPD, VADDPD and VADDSUBPD, and the in-lane shuffles VMOVDDUP,
// VPERMILPD and VBROADCASTSD. Each clears the upper halves
// (VZEROUPPER) before it returns, so the SSE2 code after it pays no
// transition. pairComplex and the Pauli chunk sums have the SSE2 body
// only: no gate the kernels see in volume is a complex non-diagonal
// 2×2.

// func hasAVX() bool
//
// Whether the AVX bodies can run: the CPU has AVX (CPUID.1:ECX bit 28)
// and the OS saves the YMM registers (OSXSAVE, bit 27, and XCR0's XMM
// and YMM bits).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18000000, CX
	CMPL	CX, $0x18000000
	JNE	no
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	no
	MOVB	$1, ret+0(FP)
	RET

no:
	MOVB	$0, ret+0(FP)
	RET

// func scaleTableSSE2(v, t *float64, row, reps, period, tstep, count int)
//
// Each amplitude times its entry, split into [er, er] and [-ei, ei]
// once per entry: [ar*er - ai*ei, ai*er + ar*ei] as a·[er, er] +
// swap(a)·[-ei, ei]. A row of one entry is loaded once per window (once
// per call at tstep 0) and applied two amplitudes at a time; a row read
// once per window takes its entries two at a time, in step with the
// amplitudes; a row repeated along the window is walked entry by entry,
// each entry applied to its amplitude in every repetition, so the split
// is not repeated.
TEXT ·scaleTableSSE2(SB), NOSPLIT, $0-56
	MOVQ	v+0(FP), DI
	MOVQ	t+8(FP), R8
	MOVQ	row+16(FP), R10
	MOVQ	reps+24(FP), CX
	MOVQ	period+32(FP), DX
	SHLQ	$3, DX              // period in bytes
	MOVQ	tstep+40(FP), R11
	SHLQ	$3, R11             // tstep in bytes
	MOVQ	count+48(FP), BX
	MOVQ	$0x8000000000000000, AX
	MOVQ	AX, X7              // X7 = [sign bit, 0]
	TESTQ	BX, BX
	JLE	done
	CMPQ	R10, $1
	JE	scalar
	CMPQ	CX, $1
	JE	once
	MOVQ	R10, R13
	SHLQ	$4, R13             // R13: the row in bytes, the stride of a repetition
	JMP	columns

scalar:
	MOVUPD	(R8), X0            // [er, ei]
	MOVAPD	X0, X1
	UNPCKLPD	X0, X0          // X0 = [er, er]
	UNPCKHPD	X1, X1
	XORPD	X7, X1              // X1 = [-ei, ei]

swindow:
	MOVQ	DI, SI
	MOVQ	CX, AX
	SUBQ	$2, AX
	JL	stail

stwo:
	MOVUPD	(SI), X2            // [ar, ai]
	MOVUPD	16(SI), X3
	PSHUFD	$0x4e, X2, X4       // [ai, ar]
	PSHUFD	$0x4e, X3, X5
	MULPD	X0, X2              // [ar*er, ai*er]
	MULPD	X0, X3
	MULPD	X1, X4              // [ai*-ei, ar*ei]
	MULPD	X1, X5
	ADDPD	X4, X2              // [ar*er - ai*ei, ai*er + ar*ei]
	ADDPD	X5, X3
	MOVUPD	X2, (SI)
	MOVUPD	X3, 16(SI)
	ADDQ	$32, SI
	SUBQ	$2, AX
	JGE	stwo

stail:
	CMPQ	AX, $-1             // -1: one amplitude left, -2: none
	JNE	snext
	MOVUPD	(SI), X2
	PSHUFD	$0x4e, X2, X4
	MULPD	X0, X2
	MULPD	X1, X4
	ADDPD	X4, X2
	MOVUPD	X2, (SI)

snext:
	ADDQ	DX, DI
	DECQ	BX
	JZ	done
	TESTQ	R11, R11            // tstep 0: the same entry, already split
	JZ	swindow
	ADDQ	R11, R8
	JMP	scalar

once:
	MOVQ	DI, SI              // SI: the amplitude, R12: its entry
	MOVQ	R8, R12
	MOVQ	R10, AX
	SUBQ	$2, AX
	JL	otail

otwo:
	MOVUPD	(SI), X2            // [ar, ai]
	MOVUPD	16(SI), X3
	MOVUPD	(R12), X0           // [er, ei]
	MOVUPD	16(R12), X8
	MOVAPD	X0, X1
	MOVAPD	X8, X9
	UNPCKLPD	X0, X0          // [er, er]
	UNPCKLPD	X8, X8
	UNPCKHPD	X1, X1
	UNPCKHPD	X9, X9
	XORPD	X7, X1              // [-ei, ei]
	XORPD	X7, X9
	PSHUFD	$0x4e, X2, X4       // [ai, ar]
	PSHUFD	$0x4e, X3, X5
	MULPD	X0, X2              // [ar*er, ai*er]
	MULPD	X8, X3
	MULPD	X1, X4              // [ai*-ei, ar*ei]
	MULPD	X9, X5
	ADDPD	X4, X2
	ADDPD	X5, X3
	MOVUPD	X2, (SI)
	MOVUPD	X3, 16(SI)
	ADDQ	$32, SI
	ADDQ	$32, R12
	SUBQ	$2, AX
	JGE	otwo

otail:
	CMPQ	AX, $-1             // -1: one entry left, -2: none
	JNE	onext
	MOVUPD	(SI), X2
	MOVUPD	(R12), X0
	MOVAPD	X0, X1
	UNPCKLPD	X0, X0
	UNPCKHPD	X1, X1
	XORPD	X7, X1
	PSHUFD	$0x4e, X2, X4
	MULPD	X0, X2
	MULPD	X1, X4
	ADDPD	X4, X2
	MOVUPD	X2, (SI)

onext:
	ADDQ	DX, DI
	ADDQ	R11, R8
	DECQ	BX
	JNZ	once
	RET

columns:
	MOVQ	DI, SI              // SI: entry k's amplitude in the first repetition
	MOVQ	R8, R12             // R12: entry k, R14: entries left
	MOVQ	R10, R14

entry:
	MOVUPD	(R12), X0           // [er, ei]
	MOVAPD	X0, X1
	UNPCKLPD	X0, X0          // [er, er]
	UNPCKHPD	X1, X1
	XORPD	X7, X1              // [-ei, ei]
	MOVQ	SI, R9              // R9: the amplitude, AX: repetitions left
	MOVQ	CX, AX

rep:
	MOVUPD	(R9), X2            // [ar, ai]
	PSHUFD	$0x4e, X2, X4       // [ai, ar]
	MULPD	X0, X2
	MULPD	X1, X4
	ADDPD	X4, X2
	MOVUPD	X2, (R9)
	ADDQ	R13, R9
	DECQ	AX
	JNZ	rep
	ADDQ	$16, SI
	ADDQ	$16, R12
	DECQ	R14
	JNZ	entry
	ADDQ	DX, DI
	ADDQ	R11, R8
	DECQ	BX
	JNZ	columns

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

// func scaleTableAVX(v, t *float64, row, reps, period, tstep, count int)
//
// scaleTableSSE2 two amplitudes at a time: a·[er, er, er', er'] and
// swap(a)·[ei, ei, ei', ei'] combined by VADDSUBPD into [ar*er - ai*ei,
// ai*er + ar*ei, …], the scalar form's subtraction and addition. A row
// of one entry is broadcast once per window (once per call at tstep 0);
// a longer row is read once per repetition, two entries at a time, the
// split done by VMOVDDUP and VPERMILPD as part of the loads.
TEXT ·scaleTableAVX(SB), NOSPLIT, $0-56
	MOVQ	v+0(FP), DI
	MOVQ	t+8(FP), R8
	MOVQ	row+16(FP), R10
	MOVQ	reps+24(FP), CX
	MOVQ	period+32(FP), DX
	SHLQ	$3, DX              // period in bytes
	MOVQ	tstep+40(FP), R11
	SHLQ	$3, R11             // tstep in bytes
	MOVQ	count+48(FP), BX
	TESTQ	BX, BX
	JLE	done
	CMPQ	R10, $1
	JNE	row

scalar:
	VBROADCASTSD	(R8), Y0    // [er, er, er, er]
	VBROADCASTSD	8(R8), Y1   // [ei, ei, ei, ei]

swindow:
	MOVQ	DI, SI
	MOVQ	CX, AX
	SUBQ	$2, AX
	JL	stail

stwo:
	VMOVUPD	(SI), Y2            // [ar, ai, ar', ai']
	VPERMILPD	$5, Y2, Y3      // [ai, ar, ai', ar']
	VMULPD	Y0, Y2, Y2          // [ar*er, ai*er, …]
	VMULPD	Y1, Y3, Y3          // [ai*ei, ar*ei, …]
	VADDSUBPD	Y3, Y2, Y2      // [ar*er - ai*ei, ai*er + ar*ei, …]
	VMOVUPD	Y2, (SI)
	ADDQ	$32, SI
	SUBQ	$2, AX
	JGE	stwo

stail:
	CMPQ	AX, $-1             // -1: one amplitude left, -2: none
	JNE	snext
	VMOVUPD	(SI), X2
	VPERMILPD	$1, X2, X3
	VMULPD	X0, X2, X2
	VMULPD	X1, X3, X3
	VADDSUBPD	X3, X2, X2
	VMOVUPD	X2, (SI)

snext:
	ADDQ	DX, DI
	DECQ	BX
	JZ	done
	TESTQ	R11, R11            // tstep 0: the same entry, already broadcast
	JZ	swindow
	ADDQ	R11, R8
	JMP	scalar

row:
	MOVQ	DI, SI              // SI: the amplitude, R14: repetitions left
	MOVQ	CX, R14

rep:
	MOVQ	R8, R12             // R12: the amplitude's entry
	MOVQ	R10, AX
	SUBQ	$2, AX
	JL	rtail

rtwo:
	VMOVDDUP	(R12), Y0       // [er, er, er', er']
	VPERMILPD	$15, (R12), Y1  // [ei, ei, ei', ei']
	VMOVUPD	(SI), Y2
	VPERMILPD	$5, Y2, Y3
	VMULPD	Y0, Y2, Y2
	VMULPD	Y1, Y3, Y3
	VADDSUBPD	Y3, Y2, Y2
	VMOVUPD	Y2, (SI)
	ADDQ	$32, SI
	ADDQ	$32, R12
	SUBQ	$2, AX
	JGE	rtwo

rtail:
	CMPQ	AX, $-1             // -1: one entry left, -2: none
	JNE	rnext
	VMOVDDUP	(R12), X0
	VPERMILPD	$3, (R12), X1
	VMOVUPD	(SI), X2
	VPERMILPD	$1, X2, X3
	VMULPD	X0, X2, X2
	VMULPD	X1, X3, X3
	VADDSUBPD	X3, X2, X2
	VMOVUPD	X2, (SI)
	ADDQ	$16, SI

rnext:
	DECQ	R14
	JNZ	rep
	ADDQ	DX, DI
	ADDQ	R11, R8
	DECQ	BX
	JNZ	row

done:
	VZEROUPPER
	RET

// func pairRealAVX(v *float64, dist, amps, period, count int, r0, r1, r2, r3 float64)
TEXT ·pairRealAVX(SB), NOSPLIT, $0-72
	MOVQ	v+0(FP), DI
	MOVQ	dist+8(FP), R8
	SHLQ	$3, R8              // dist in bytes
	MOVQ	amps+16(FP), CX
	MOVQ	period+24(FP), DX
	SHLQ	$3, DX              // period in bytes
	MOVQ	count+32(FP), BX
	VBROADCASTSD	r0+40(FP), Y0
	VBROADCASTSD	r1+48(FP), Y1
	VBROADCASTSD	r2+56(FP), Y2
	VBROADCASTSD	r3+64(FP), Y3
	TESTQ	BX, BX
	JLE	done

window:
	MOVQ	DI, SI              // SI: window, R9: partner
	LEAQ	(DI)(R8*1), R9
	MOVQ	CX, AX
	SUBQ	$2, AX
	JL	tail

two:
	VMOVUPD	(SI), Y4            // a
	VMOVUPD	(R9), Y5            // b
	VMULPD	Y4, Y0, Y6          // r0*a
	VMULPD	Y5, Y1, Y7          // r1*b
	VMULPD	Y4, Y2, Y8          // r2*a
	VMULPD	Y5, Y3, Y9          // r3*b
	VADDPD	Y7, Y6, Y6          // r0*a + r1*b
	VADDPD	Y9, Y8, Y8          // r2*a + r3*b
	VMOVUPD	Y6, (SI)
	VMOVUPD	Y8, (R9)
	ADDQ	$32, SI
	ADDQ	$32, R9
	SUBQ	$2, AX
	JGE	two

tail:
	CMPQ	AX, $-1             // -1: one amplitude left, -2: none
	JNE	next
	VMOVUPD	(SI), X4
	VMOVUPD	(R9), X5
	VMULPD	X4, X0, X6
	VMULPD	X5, X1, X7
	VMULPD	X4, X2, X8
	VMULPD	X5, X3, X9
	VADDPD	X7, X6, X6
	VADDPD	X9, X8, X8
	VMOVUPD	X6, (SI)
	VMOVUPD	X8, (R9)

next:
	ADDQ	DX, DI
	DECQ	BX
	JNZ	window

done:
	VZEROUPPER
	RET
