//go:build !amd64

package statevec

// Without an assembly body the lane primitives are their Go loops: the
// fuzz targets have no other body to hold to them.
var asmBodies []laneBody
