package statevec

import "testing"

// asmBodies are the two assembly bodies of the amplitude primitives,
// each called directly whatever the CPU probe picked; the AVX body runs
// only where the probe finds AVX, and pairComplex has the SSE2 body
// only.
var asmBodies = []laneBody{
	{"sse2", true, bodySSE2.scaleWindows, bodySSE2.scaleTable, bodySSE2.pairReal, pairComplex},
	{"avx", hasAVX(), bodyAVX.scaleWindows, bodyAVX.scaleTable, bodyAVX.pairReal, nil},
}

// TestSSE2BodiesBitIdentity runs the tile and full-sweep bit-identity
// suites with the wrappers forced to the SSE2 bodies, which a CPU with
// AVX runs nowhere else: every kernel shape on them, not only the
// primitives' shapes the fuzz targets draw.
func TestSSE2BodiesBitIdentity(t *testing.T) {
	defer func(b asmBody) { laneAsm = b }(laneAsm)
	laneAsm = bodySSE2
	t.Run("tile", TestTileKernelBitIdentityFuzz)
	t.Run("full", TestFullSweepKernelBitIdentityFuzz)
	t.Run("qubit0", TestQubit0RelPhaseBitIdentity)
}
