package statevec

import "testing"

// asmBodies are the assembly bodies of the lane primitives, each called
// directly whatever the CPU probe picked: AVX for scaleWindows,
// scaleTable, pairReal and pauliChunks, run only where the probe finds
// AVX, and SSE2 for pairComplex, the one primitive with no AVX body.
var asmBodies = []laneBody{
	{"avx", hasAVX(), avxScaleWindows, avxScaleTable, avxPairReal, nil, avxPauliChunks},
	{"sse2", true, nil, nil, nil, pairComplex, nil},
}

// wrapperBodies runs check once per body the lane wrappers can take
// here, for the fuzz targets' mutation phase: the AVX bodies where the
// probe finds AVX, then, with useAVX cleared, the Go loops of scaleWindows, scaleTable, pairReal and
// pauliChunks next to the SSE2 pairComplex — what an amd64 CPU without
// AVX runs, and what a CPU with AVX runs nowhere else.
func wrapperBodies(check func(body string)) {
	defer func(b bool) { useAVX = b }(useAVX)
	if hasAVX() {
		useAVX = true
		check("avx")
	}
	useAVX = false
	check("go")
}

// TestGoFallbackBitIdentity runs the tile, full-sweep, phase-table and
// ⟨H⟩ bit-identity suites with useAVX cleared, so the wrappers run the
// Go loops of scaleWindows, scaleTable, pairReal and pauliChunks next
// to the SSE2 pairComplex: what an amd64 CPU without AVX runs, and what
// a CPU with AVX runs nowhere else.
func TestGoFallbackBitIdentity(t *testing.T) {
	defer func(b bool) { useAVX = b }(useAVX)
	useAVX = false
	t.Run("tile", TestTileKernelBitIdentityFuzz)
	t.Run("full", TestFullSweepKernelBitIdentityFuzz)
	t.Run("qubit0", TestQubit0RelPhaseBitIdentity)
	t.Run("table", TestPhaseTableMatchesPerIndex)
	t.Run("pauli", TestExpPauliGroupMatchesReference)
	t.Run("shard", TestShardMatchesReference)
}
