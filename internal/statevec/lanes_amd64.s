#include "textflag.h"

// Assembly bodies of the lane primitives (lanes.go, lanes_amd64.go):
// AVX bodies of scaleTable, pairReal and pauliChunks, which the
// wrappers run where hasAVX finds the CPU and the OS support them (the
// Go loops elsewhere), and an SSE2 body of pairComplex, which every
// amd64 CPU runs. scaleWindows is scaleTable's row of one entry.
// Unaligned loads and stores throughout, and no FMA: every lane is one
// IEEE 754 multiply, add or subtract of the scalar form's operands
// (lanes.go).
//
// The AVX bodies hold two amplitudes per YMM register. scaleTable and
// pairReal take one register per loop iteration and a one-amplitude
// tail on VEX-encoded XMM registers; the Pauli chunk sums take one
// register of each of four lanes, or two one-amplitude windows per
// register. pairReal's swap form (a CX riding in the pair update) is
// the same loop with the matrix's rows traded in registers where the
// control bit is 1, per register half by VBLENDPD for a control on
// qubit 0. Nothing above AVX: VMULPD, VADDPD, VSUBPD and VADDSUBPD,
// the in-lane shuffles VMOVDDUP, VPERMILPD, VUNPCKLPD/VUNPCKHPD,
// VBLENDPD and VBROADCASTSD, and VPERM2F128 and VINSERTF128 across the halves; the
// Pauli chunk sums also take POPCNTQ, which hasAVX checks for. Each
// clears the upper halves (VZEROUPPER) before it returns, so SSE code
// after it pays no transition.
//
// pairComplexSSE2 holds one amplitude per XMM register and the matrix
// in eight. It has no AVX body: no gate the kernels see in volume is a
// complex non-diagonal 2×2.

// Macros of the AVX Pauli chunk sums (pauliChunksAVX, below), which
// hold two amplitudes of a lane per YMM register. LANESUM(op) turns the
// four lanes' products — lane k's two amplitudes in Yk, [x, y, x', y']
// — into the lanes' x op y, transposed within each 128-bit half by
// VUNPCKLPD/VUNPCKHPD and across the halves by VPERM2F128: [L0, L1,
// L2, L3] at the first amplitude in Y0, at the second in Y1.
#define LANESUM(op) \
	VUNPCKLPD	Y1, Y0, Y4; \
	VUNPCKHPD	Y1, Y0, Y0; \
	op	Y0, Y4, Y4; \
	VUNPCKLPD	Y3, Y2, Y5; \
	VUNPCKHPD	Y3, Y2, Y2; \
	op	Y2, Y5, Y5; \
	VPERM2F128	$0x20, Y5, Y4, Y0; \
	VPERM2F128	$0x31, Y5, Y4, Y1

// PAIRACC(s0, s1) doubles Y0 and Y1, flips their lanes' signs by s0 and
// s1, and adds them to the sums in Y10, Y0 first.
#define PAIRACC(s0, s1) \
	VADDPD	Y0, Y0, Y0; \
	VXORPD	s0, Y0, Y0; \
	VADDPD	Y0, Y10, Y10; \
	VADDPD	Y1, Y1, Y1; \
	VXORPD	s1, Y1, Y1; \
	VADDPD	Y1, Y10, Y10

// PARITY(b, r) sets r to 32·parity(b & sign): the offset of a window's
// sign vector in the frame, or of its reads in pauliLaneArgs.
#define PARITY(b, r) \
	MOVQ	b, r; \
	ANDQ	sign+40(FP), r; \
	POPCNTQ	r, r; \
	ANDQ	$1, r; \
	SHLQ	$5, r

// NEXT(b, run) steps block index b on by run enumeration indices: the
// pivot bit set, so a carry out of the bits below it passes over it,
// and cleared again.
#define NEXT(b, run) \
	ORQ	64(SP), b; \
	ADDQ	run, b; \
	ANDQ	72(SP), b

// A lane's products. REAL2 and IMAG2: two amplitudes of a window at
// byte offset AX times its partner's at CX (swapped for ±i, so
// [ar·pi, ai·pr]); SQ2: two at CX squared. REAL1 and IMAG1: one
// amplitude of each of two windows, at AX and DX, times their
// partners', at CX and R14; SQ1: one amplitude of each of two parity
// windows, read through a at AX and through b at CX, squared.
#define REAL2(a, p, y) \
	VMOVUPD	(a)(AX*1), y; \
	VMULPD	(p)(CX*1), y, y

#define IMAG2(a, p, y) \
	VPERMILPD	$5, (p)(CX*1), y; \
	VMULPD	(a)(AX*1), y, y

#define SQ2(a, y) \
	VMOVUPD	(a)(CX*1), y; \
	VMULPD	y, y, y

#define REAL1(a, p, x, y) \
	VMOVUPD	(a)(AX*1), x; \
	VINSERTF128	$1, (a)(DX*1), y, y; \
	VMOVUPD	(p)(CX*1), X4; \
	VINSERTF128	$1, (p)(R14*1), Y4, Y4; \
	VMULPD	Y4, y, y

#define IMAG1(a, p, x, y) \
	VMOVUPD	(a)(AX*1), x; \
	VINSERTF128	$1, (a)(DX*1), y, y; \
	VMOVUPD	(p)(CX*1), X4; \
	VINSERTF128	$1, (p)(R14*1), Y4, Y4; \
	VPERMILPD	$5, Y4, Y4; \
	VMULPD	Y4, y, y

#define SQ1(a, b, x, y) \
	VMOVUPD	(a)(AX*1), x; \
	VINSERTF128	$1, (b)(CX*1), y, y; \
	VMULPD	y, y, y

// func hasAVX() bool
//
// Whether the AVX bodies can run: the CPU has AVX (CPUID.1:ECX bit 28)
// and POPCNT (bit 23, which the Pauli chunk sums take a window's parity
// with), and the OS saves the YMM registers (OSXSAVE, bit 27, and
// XCR0's XMM and YMM bits).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18800000, CX
	CMPL	CX, $0x18800000
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

// func scaleTableAVX(v, t *float64, row, reps, period, tstep, count int)
//
// Each amplitude times its entry, two amplitudes at a time: a·[er, er,
// er', er'] and swap(a)·[ei, ei, ei', ei'] combined by VADDSUBPD into
// [ar*er - ai*ei, ai*er + ar*ei, …], the scalar form's subtraction and
// addition. A row
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

// func pairRealAVX(v *float64, dist, amps, period, count int, r0, r1, r2, r3 float64, swap int)
//
// With swap 0 the pair update alone. Otherwise the swap form: where a
// pair's results trade places, row 0 of the matrix computes the
// partner's result and row 1 the window's, the same products summed in
// the same order. The rows are set per window: traded where the
// window's offset has the bit; else, with swap two lanes (qubit 0),
// mixed per register half by VBLENDPD — a register's second amplitude
// has the bit, its first not, since each register starts at an even
// amplitude of the window; else as given, traded again each time the
// walk crosses swap lanes, so a register's two amplitudes share the
// bit, as does the tail's one.
TEXT ·pairRealAVX(SB), NOSPLIT, $0-80
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
	MOVQ	swap+72(FP), R10
	SHLQ	$3, R10             // swap in bytes
	TESTQ	BX, BX
	JLE	done
	TESTQ	R10, R10
	JNZ	swapped

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

swapped:
	MOVQ	DI, R11             // R11: v, the origin of window offsets
	VMOVAPD	Y0, Y10             // Y10-Y13: the rows as given
	VMOVAPD	Y1, Y11
	VMOVAPD	Y2, Y12
	VMOVAPD	Y3, Y13

swindow:
	MOVQ	DI, SI
	LEAQ	(DI)(R8*1), R9
	MOVQ	$-1, R12            // R12: bytes to the next trade of the rows; odd, so none
	MOVQ	DI, R13
	SUBQ	R11, R13
	TESTQ	R10, R13
	JZ	sclear
	VMOVAPD	Y12, Y0             // the window's offset has the bit: rows traded
	VMOVAPD	Y13, Y1
	VMOVAPD	Y10, Y2
	VMOVAPD	Y11, Y3
	JMP	sgo

sclear:
	CMPQ	R10, $16
	JNE	sflip
	VBLENDPD	$12, Y12, Y10, Y0 // qubit 0: [r0, r2] — a register's second
	VBLENDPD	$12, Y13, Y11, Y1 // amplitude has the bit, its first not
	VBLENDPD	$12, Y10, Y12, Y2
	VBLENDPD	$12, Y11, Y13, Y3
	JMP	sgo

sflip:
	VMOVAPD	Y10, Y0             // rows as given for the first swap bytes
	VMOVAPD	Y11, Y1
	VMOVAPD	Y12, Y2
	VMOVAPD	Y13, Y3
	MOVQ	R10, R12

sgo:
	MOVQ	CX, AX
	SUBQ	$2, AX
	JL	stail

stwo:
	VMOVUPD	(SI), Y4
	VMOVUPD	(R9), Y5
	VMULPD	Y4, Y0, Y6
	VMULPD	Y5, Y1, Y7
	VMULPD	Y4, Y2, Y8
	VMULPD	Y5, Y3, Y9
	VADDPD	Y7, Y6, Y6
	VADDPD	Y9, Y8, Y8
	VMOVUPD	Y6, (SI)
	VMOVUPD	Y8, (R9)
	ADDQ	$32, SI
	ADDQ	$32, R9
	SUBQ	$32, R12
	JNZ	skeep
	VMOVAPD	Y0, Y14             // the walk crossed swap bytes: trade the rows
	VMOVAPD	Y2, Y0
	VMOVAPD	Y14, Y2
	VMOVAPD	Y1, Y14
	VMOVAPD	Y3, Y1
	VMOVAPD	Y14, Y3
	MOVQ	R10, R12

skeep:
	SUBQ	$2, AX
	JGE	stwo

stail:
	CMPQ	AX, $-1
	JNE	snext
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

snext:
	ADDQ	DX, DI
	DECQ	BX
	JNZ	swindow
	VZEROUPPER
	RET

// func pauliChunksAVX(l *pauliLaneArgs, off, cnt, run, low, sign, flip, kind int)
//
// pauliChunksGo's operations on all four lanes of l, two amplitudes per
// lane and register: the lanes' sums in Y10, each lane adding its terms
// in ascending j, j then j+1 (LANESUM, PAIRACC). A window of two or
// more amplitudes is walked two at a time; a walk of one-amplitude
// windows (run 1) takes two windows per register, the second in the
// upper half (VINSERTF128), and needs an even window count. The walk's
// state stays in registers — the pair walks' eight lane pointers, the
// block index b stepped by NEXT, byte offsets into the lanes — and a
// window's parity is one POPCNTQ.
//
// pauliLaneArgs: a [4]*float64 at 0, b at 32, sgn [4]uint64 at 64, acc
// [4]float64 at 96 (checked in lanes_amd64.go). Frame: the pair walks'
// lane sign vectors for an even and for an odd window parity at 0 and
// 32, the pivot bit at 64, its complement at 72 and the walk's end (b
// at j = cnt) at 80.
TEXT ·pauliChunksAVX(SB), NOSPLIT, $88-64
	MOVQ	l+0(FP), DX
	VXORPD	Y10, Y10, Y10
	MOVQ	low+32(FP), AX
	LEAQ	1(AX), CX           // the pivot bit: low+1, 0 above the block
	MOVQ	CX, 64(SP)
	NOTQ	CX
	MOVQ	CX, 72(SP)
	MOVQ	cnt+16(FP), BX      // the end: off + cnt&low + (cnt&^low)<<1
	MOVQ	AX, CX
	NOTQ	CX
	ANDQ	BX, CX
	SHLQ	$1, CX
	ANDQ	BX, AX
	ADDQ	AX, CX
	ADDQ	off+8(FP), CX
	MOVQ	CX, 80(SP)
	MOVQ	off+8(FP), BX       // BX: b, the window's block index
	CMPQ	kind+56(FP), $2
	JEQ	norm

	VMOVUPD	64(DX), Y0          // the sign vectors: sgn, and sgn flipped
	VMOVUPD	Y0, (SP)
	MOVQ	$0x8000000000000000, AX
	VMOVQ	AX, X1
	VMOVDDUP	X1, X1
	VINSERTF128	$1, X1, Y1, Y1
	VXORPD	Y1, Y0, Y0
	VMOVUPD	Y0, 32(SP)
	MOVQ	0(DX), SI           // SI, DI, R8, R9: the lanes' blocks
	MOVQ	8(DX), DI
	MOVQ	16(DX), R8
	MOVQ	24(DX), R9
	MOVQ	32(DX), R10         // R10–R13: their partner blocks
	MOVQ	40(DX), R11
	MOVQ	48(DX), R12
	MOVQ	56(DX), R13
	MOVQ	run+24(FP), DX
	CMPQ	DX, $1
	JEQ	narrow

window:
	PARITY(BX, AX)
	VMOVUPD	(SP)(AX*1), Y15     // the window's lane signs
	MOVQ	BX, CX              // CX: the partner window's byte offset, AX: the window's
	XORQ	flip+48(FP), CX
	SHLQ	$4, CX
	MOVQ	BX, AX
	SHLQ	$4, AX
	MOVQ	DX, R14             // R14: amplitude pairs left
	SHRQ	$1, R14
	CMPQ	kind+56(FP), $1
	JEQ	imag

real:
	REAL2(SI, R10, Y0)
	REAL2(DI, R11, Y1)
	REAL2(R8, R12, Y2)
	REAL2(R9, R13, Y3)
	LANESUM(VADDPD)
	PAIRACC(Y15, Y15)
	ADDQ	$32, AX
	ADDQ	$32, CX
	DECQ	R14
	JNZ	real
	JMP	next

imag:
	IMAG2(SI, R10, Y0)
	IMAG2(DI, R11, Y1)
	IMAG2(R8, R12, Y2)
	IMAG2(R9, R13, Y3)
	LANESUM(VSUBPD)             // ar·pi − ai·pr
	PAIRACC(Y15, Y15)
	ADDQ	$32, AX
	ADDQ	$32, CX
	DECQ	R14
	JNZ	imag

next:
	NEXT(BX, DX)
	CMPQ	BX, 80(SP)
	JLT	window
	JMP	done

narrow:
	PARITY(BX, AX)
	VMOVUPD	(SP)(AX*1), Y14     // the first window's lane signs
	MOVQ	BX, CX
	XORQ	flip+48(FP), CX
	SHLQ	$4, CX
	MOVQ	BX, AX
	SHLQ	$4, AX
	NEXT(BX, $1)
	PARITY(BX, DX)
	VMOVUPD	(SP)(DX*1), Y15     // the second's
	MOVQ	BX, R14
	XORQ	flip+48(FP), R14
	SHLQ	$4, R14
	MOVQ	BX, DX
	SHLQ	$4, DX
	NEXT(BX, $1)
	CMPQ	kind+56(FP), $1
	JEQ	imag1
	REAL1(SI, R10, X0, Y0)
	REAL1(DI, R11, X1, Y1)
	REAL1(R8, R12, X2, Y2)
	REAL1(R9, R13, X3, Y3)
	LANESUM(VADDPD)
	JMP	acc1

imag1:
	IMAG1(SI, R10, X0, Y0)
	IMAG1(DI, R11, X1, Y1)
	IMAG1(R8, R12, X2, Y2)
	IMAG1(R9, R13, X3, Y3)
	LANESUM(VSUBPD)

acc1:
	PAIRACC(Y14, Y15)
	CMPQ	BX, 80(SP)
	JLT	narrow
	JMP	done

norm:
	MOVQ	run+24(FP), R10
	CMPQ	R10, $1
	JEQ	sqnarrow

sqwindow:
	PARITY(BX, AX)
	MOVQ	(DX)(AX*1), SI      // the lanes' reads for this parity: a or b
	MOVQ	8(DX)(AX*1), DI
	MOVQ	16(DX)(AX*1), R8
	MOVQ	24(DX)(AX*1), R9
	MOVQ	BX, CX
	SHLQ	$4, CX
	MOVQ	R10, R14
	SHRQ	$1, R14

sq:
	SQ2(SI, Y0)
	SQ2(DI, Y1)
	SQ2(R8, Y2)
	SQ2(R9, Y3)
	LANESUM(VADDPD)
	VADDPD	Y0, Y10, Y10
	VADDPD	Y1, Y10, Y10
	ADDQ	$32, CX
	DECQ	R14
	JNZ	sq
	NEXT(BX, R10)
	CMPQ	BX, 80(SP)
	JLT	sqwindow
	JMP	done

sqnarrow:
	PARITY(BX, R14)
	MOVQ	(DX)(R14*1), SI     // SI, DI, R8, R9: the first window's reads
	MOVQ	8(DX)(R14*1), DI
	MOVQ	16(DX)(R14*1), R8
	MOVQ	24(DX)(R14*1), R9
	MOVQ	BX, AX
	SHLQ	$4, AX
	NEXT(BX, $1)
	PARITY(BX, R14)
	MOVQ	(DX)(R14*1), R10    // R10–R13: the second's
	MOVQ	8(DX)(R14*1), R11
	MOVQ	16(DX)(R14*1), R12
	MOVQ	24(DX)(R14*1), R13
	MOVQ	BX, CX
	SHLQ	$4, CX
	NEXT(BX, $1)
	SQ1(SI, R10, X0, Y0)
	SQ1(DI, R11, X1, Y1)
	SQ1(R8, R12, X2, Y2)
	SQ1(R9, R13, X3, Y3)
	LANESUM(VADDPD)
	VADDPD	Y0, Y10, Y10
	VADDPD	Y1, Y10, Y10
	CMPQ	BX, 80(SP)
	JLT	sqnarrow

done:
	MOVQ	l+0(FP), DX
	VMOVUPD	Y10, 96(DX)
	VZEROUPPER
	RET
