// Package qft generates Quantum Fourier Transform circuits and kernels
// per Appendix D.2 of the paper: a Hadamard on each qubit interleaved
// with controlled arbitrary rotations cr1(λ) (Eq. 9) between each
// qubit i and all higher qubits j, with angles decreasing as
// 2π/2^(j-i+1) — O(n²) gates. The paper's two tuning hooks live
// elsewhere: kernel.Options.PruneAngle prunes negligible rotation
// angles, and gate fusion (= 5) is what the compiled tile plan does
// exactly.
package qft

import (
	"fmt"
	"math"

	"qgear/internal/circuit"
)

// Circuit returns the n-qubit QFT as an object-based circuit. With
// reverse set, trailing swaps put the output in natural bit order (the
// paper's "QFT circuit reverse activation" pipeline flag).
func Circuit(n int, reverse bool) (*circuit.Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("qft: need at least 1 qubit, have %d", n)
	}
	c := circuit.New(n, 0)
	c.Name = fmt.Sprintf("qft_%dq", n)
	for j := n - 1; j >= 0; j-- {
		c.H(j)
		for k := j - 1; k >= 0; k-- {
			// Angle 2π/2^(j-k+1) between qubits k and j.
			c.CP(2*math.Pi/math.Exp2(float64(j-k+1)), k, j)
		}
	}
	if reverse {
		for i := 0; i < n/2; i++ {
			c.SWAP(i, n-1-i)
		}
	}
	return c, nil
}

// GateCount returns the primitive gate count of the n-qubit QFT
// without the reversal swaps: n Hadamards + n(n-1)/2 controlled
// rotations.
func GateCount(n int) int { return n + n*(n-1)/2 }
