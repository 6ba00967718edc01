//go:build !amd64

package statevec

// Without an assembly body the lane primitives are their Go loops: the
// fuzz targets have no other body to hold to them.
var asmBodies []laneBody

// wrapperBodies runs check once, on the Go loops, the wrappers' one
// body here.
func wrapperBodies(check func(body string)) { check("go") }
