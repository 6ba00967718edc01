package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// The support (statevec.State's known classical bits) against the rule
// it follows, written here a second way: one entry per physical
// position, -1 for unknown, else the bit's value.
type knownBits []int8

// mix records a gate mixing target t where every ctrls bit is 1: a
// control known to be 0 makes it nothing, an X under known controls
// flips a known target, anything else forgets the target.
func (k knownBits) mix(ctrls []int, t int, x bool) {
	all := true
	for _, c := range ctrls {
		switch k[c] {
		case 0:
			return
		case -1:
			all = false
		}
	}
	if x && all {
		if k[t] >= 0 {
			k[t] ^= 1
		}
		return
	}
	k[t] = -1
}

// segment steps k past one segment of p.
func (k knownBits) segment(p *TilePlan, seg Segment) {
	switch seg.Kind {
	case SegBitSwap:
		k[seg.A], k[seg.B] = k[seg.B], k[seg.A]
	case SegGlobal:
		for _, in := range p.Globals[seg.Lo:seg.Hi] {
			q := in.Qubits
			switch {
			case !planned(in) || statevec.IsDiagonalGate(in.Gate):
			case in.Gate == gate.SWAP:
				k[q[0]], k[q[1]] = k[q[1]], k[q[0]]
			case in.Gate.Arity() == 2:
				k.mix(q[:1], q[1], in.Gate == gate.CX)
			default:
				k.mix(nil, q[0], in.Gate == gate.X)
			}
		}
	case SegRun:
		for _, op := range p.Ops[seg.Lo:seg.Hi] {
			if op.Kind != statevec.TileMat1 && op.Kind != statevec.TileCX {
				continue
			}
			var ctrls []int
			for m := op.HighMask; m != 0; m &= m - 1 {
				ctrls = append(ctrls, bits.TrailingZeros64(m))
			}
			if op.HasCtrl {
				ctrls = append(ctrls, int(op.C))
			}
			k.mix(ctrls, int(op.T), op.Kind == statevec.TileCX || op.M == gate.Matrix1(gate.X, nil))
		}
	}
}

// masks returns k as a support's (mask, val).
func (k knownBits) masks() (mask, val uint64) {
	for q, b := range k {
		if b >= 0 {
			mask |= 1 << uint(q)
			val |= uint64(b) << uint(q)
		}
	}
	return mask, val
}

// executeSegments runs p on s one segment at a time, as ExecuteCancel
// does, calling after once before the first segment (i = -1) and once
// after each.
func executeSegments(t *testing.T, p *TilePlan, s *statevec.State, after func(i int)) {
	t.Helper()
	after(-1)
	for i, seg := range p.Segments {
		var err error
		switch seg.Kind {
		case SegRun:
			err = s.ApplyTileRun(p.TileBits, 0, p.Ops[seg.Lo:seg.Hi])
		case SegBitSwap:
			s.ApplySwap(int(seg.A), int(seg.B))
		case SegGlobal:
			err = p.ApplyGlobal(s, seg)
		}
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		after(i)
	}
}

// TestSupportNeverLies runs basis-prefixed soups at 2–13 qubits on the
// per-gate schedule and at two tile widths, some from a basis state
// that SetAmp has spread onto a second index, and after every segment
// holds the state's support to the rule's prediction and every
// amplitude outside it to +0.
func TestSupportNeverLies(t *testing.T) {
	rng := qmath.NewRNG(0x5e7)
	for trial := 0; trial < 36; trial++ {
		n := 2 + trial%12
		c := oracle.BasisSoup(n, 4+rng.Intn(120), rng.Uint64(), rng)
		k, _, err := FromCircuit(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		spread := trial%3 == 0
		from, to := rng.Uint64()&(1<<uint(n)-1), rng.Uint64()&(1<<uint(n)-1)
		for _, tb := range []int{0, 1 + n/3, n - 1} {
			p, err := Plan(k, PlanConfig{TileBits: tb})
			if err != nil {
				t.Fatal(err)
			}
			s := statevec.MustNew(n, 1+trial%3)
			want := make(knownBits, n)
			if spread {
				if err := s.PrepareBasis(from); err != nil {
					t.Fatal(err)
				}
				s.SetAmp(to, complex(0, -1))
				for q := range want {
					want[q] = int8(from >> uint(q) & 1)
					if (from^to)>>uint(q)&1 == 1 {
						want[q] = -1
					}
				}
			}
			name := fmt.Sprintf("n=%d trial %d tile %d (plan width %d)", n, trial, tb, p.TileBits)
			check := func(when string) {
				sp := s.Support()
				mask, val := sp.Mask, sp.Val
				if wm, wv := want.masks(); mask != wm || val != wv {
					t.Fatalf("%s, %s: support (%#x, %#x), the rule says (%#x, %#x)", name, when, mask, val, wm, wv)
				}
				for j := uint64(0); j < 1<<uint(n); j++ {
					if a := s.Amp(j); j&mask != val && (math.Float64bits(real(a)) != 0 || math.Float64bits(imag(a)) != 0) {
						t.Fatalf("%s, %s: amplitude %d = %v outside the support (%#x, %#x)", name, when, j, a, mask, val)
					}
				}
			}
			executeSegments(t, p, s, func(i int) {
				if i >= 0 {
					want.segment(p, p.Segments[i])
				}
				check(fmt.Sprintf("after segment %d", i))
			})
			// Materializing the plan's final layout carries every record
			// to its logical qubit's position.
			if p.FinalPerm != nil {
				if err := s.SetPermutation(p.FinalPerm); err != nil {
					t.Fatal(err)
				}
				s.MaterializePerm()
				phys := append(knownBits(nil), want...)
				for q, pos := range p.FinalPerm {
					want[q] = phys[pos]
				}
				check("after materializing")
			}
			s.Release()
		}
	}
}

// runAmps executes p on a fresh n-qubit state at w workers and returns
// its amplitudes in logical order; dense first forgets the support, so
// every sweep runs over the whole state.
func runAmps(t *testing.T, p *TilePlan, n, w int, dense bool) []complex128 {
	t.Helper()
	s := statevec.MustNew(n, w)
	defer s.Release()
	if dense {
		s.Amplitudes()
	}
	if err := p.Execute(s); err != nil {
		t.Fatal(err)
	}
	return append([]complex128(nil), s.Amplitudes()...)
}

// TestSupportSkipSameBits: skipping what the support rules out changes
// no bit. On basis-prefixed soups up to 13 qubits, every schedule
// (per-gate, tile widths 4 and n−1) at 1, 2 and 4 workers leaves the
// same amplitude bits, zero signs included; and each equals the same
// run started dense — every non-zero amplitude bit for bit, every zero
// a zero (a computed zero may carry the sign a skipped one does not).
func TestSupportSkipSameBits(t *testing.T) {
	rng := qmath.NewRNG(0x5b1)
	for trial := 0; trial < 12; trial++ {
		n := 5 + trial%9
		c := oracle.BasisSoup(n, 150, rng.Uint64(), rng)
		k, _, err := FromCircuit(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ref []complex128
		for _, tb := range []int{0, 4, n - 1} {
			p, err := Plan(k, PlanConfig{TileBits: tb})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4} {
				name := fmt.Sprintf("n=%d trial %d tile %d w%d", n, trial, tb, w)
				got, dense := runAmps(t, p, n, w, false), runAmps(t, p, n, w, true)
				if ref == nil {
					ref = got
				}
				for i, a := range got {
					if !sameBits(a, ref[i]) {
						t.Fatalf("%s: amplitude %d = %v, per-gate at one worker %v, want the same bits", name, i, a, ref[i])
					}
					if d := dense[i]; a == 0 && d != 0 || a != 0 && !sameBits(a, d) {
						t.Fatalf("%s: amplitude %d = %v, started dense %v", name, i, a, d)
					}
				}
			}
		}
	}
}

// sameBits reports whether two amplitudes are equal bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
