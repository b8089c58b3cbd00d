package tensor

import (
	"fmt"
	"math"
)

// ReLUMaxPool2x2 writes the 2×2, stride-2, unpadded max-pool of a ReLU'd
// panel into out: panel holds planes (inH×inW) planes, row-major, out the
// planes (inH/2 × inW/2) planes of window maxima; an odd inH or inW drops the
// last row or column, as MaxPool2D does. It is the pool of the inference
// engine's fused conv → ReLU → max-pool step, one call per sample panel.
//
// Precondition: every element of panel is a ReLUBits output, so never NaN
// and never −0. Such values order as their bit patterns do, and two that
// compare equal have the same bits, so a window's maximum does not depend on
// the order it is taken in: it is the unsigned maximum of its four elements'
// bits. That is MaxPool2D.Forward's "first element, then any strictly
// greater" on these values, and it is what the amd64 kernel's MAXPD computes
// (MAXPD returns its second operand on a tie or a NaN, neither of which can
// then differ from the first).
func ReLUMaxPool2x2(out, panel []float64, planes, inH, inW int) {
	checkPool2x2(out, panel, planes, inH, inW)
	reluMaxPool2x2(out, panel, planes, inH, inW)
}

// ReLUMaxPool2x2Generic is ReLUMaxPool2x2 as a Go loop over the four
// elements' bits: the kernel off amd64, and the twin the tests hold the amd64
// kernel's bits to.
func ReLUMaxPool2x2Generic(out, panel []float64, planes, inH, inW int) {
	checkPool2x2(out, panel, planes, inH, inW)
	outH, outW := inH/2, inW/2
	for p := range planes {
		for oh := range outH {
			r0 := panel[(p*inH+2*oh)*inW:]
			r1 := r0[inW:]
			o := out[(p*outH+oh)*outW : (p*outH+oh+1)*outW]
			for ow := range o {
				o[ow] = math.Float64frombits(max(math.Float64bits(r0[2*ow]), math.Float64bits(r0[2*ow+1]),
					math.Float64bits(r1[2*ow]), math.Float64bits(r1[2*ow+1])))
			}
		}
	}
}

// checkPool2x2 panics unless panel and out hold exactly the planes the 2×2
// pool reads and writes.
func checkPool2x2(out, panel []float64, planes, inH, inW int) {
	if planes < 0 || inH < 0 || inW < 0 || len(panel) != planes*inH*inW || len(out) != planes*(inH/2)*(inW/2) {
		panic(fmt.Sprintf("tensor: ReLUMaxPool2x2 length mismatch out=%d panel=%d for %d planes of %d×%d",
			len(out), len(panel), planes, inH, inW))
	}
}
