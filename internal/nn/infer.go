package nn

import (
	"math"

	"reramtest/internal/tensor"
)

// BatchInfer is the inference-only fast path a layer exposes to the batch
// execution engine. ForwardBatchRange writes output rows [lo, hi) of the
// layer's forward pass into dst (N, outVol), reading rows [lo, hi) of
// x (N, inVol). scratch must hold InferScratch() float64s and is private to
// the call, so disjoint ranges with separate scratch may run concurrently.
//
// Contract: a row's output depends on that row alone, and every output
// element folds the same terms in the same order whatever kernel, loop nest
// or row range delivers it — so any partition of the batch yields the same
// bits, and internal/engine/testdata/golden_logits.json pins those bits for
// every seed model. The reference each kernel is held to is the unfused
// composition of the tensor reference kernels: Im2ColInto + MatMulSlices +
// bias for a convolution, MatMulSlices + bias for a dense layer, the
// first-element-then-strictly-greater window sweep for a max-pool and
// v > 0 ? v : +0 for a ReLU. Flatten, whose inference pass is the identity,
// does not implement it: the engine elides it from the plan.
//
// Every compute layer implements it, and so does one thing that is not a
// layer: ConvBlock (convblock.go), a Conv2D run as one kernel with the ReLU
// and a 2×2 stride-2 max-pool behind it, held to the bits of the three
// layers' ForwardBatchRange chain. The convolution sample loop lives there
// once; Conv2D's own ForwardBatchRange is that loop with no activation
// behind it, and ReLU's shares its branch-free comparison. Conv2D (through
// tensor.ConvPlan, which reads the im2col panel's values in place from the
// input) and Dense (tensor.MatMulBlockedSlices) both run the register tiles,
// whose zero-skip argument makes them MatMulSlices's bits.
type BatchInfer interface {
	ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, scratch []float64)
	// InferScratch returns the per-call scratch requirement in float64s.
	InferScratch() int
}

// ForwardBatchRange implements BatchInfer: y = x·W + b for rows [lo, hi),
// through tensor.MatMulBlockedSlices — MatMulSlices's per-element fold, four
// sample rows per register tile reading the weight matrix through the
// layer's row-offset table, so a zero activation facing a non-finite weight
// sends its 4-row block back to the Go fold; fewer than four rows (every
// one-row request) take MatMulSlices directly — then the per-column bias
// loop.
// The train engine's dense forward (TrainForwardRange) is this call.
func (d *Dense) ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, _ []float64) {
	tensor.AssertDims("Dense.ForwardBatchRange x", x, tensor.Wildcard, d.in)
	tensor.AssertDims("Dense.ForwardBatchRange dst", dst, x.Dim(0), d.out)
	od, xd := dst.Data()[lo*d.out:hi*d.out], x.Data()[lo*d.in:hi*d.in]
	if hi-lo < 4 {
		tensor.MatMulSlices(od, xd, d.weight.Value.Data(), hi-lo, d.in, d.out)
	} else {
		tensor.MatMulBlockedSlices(od, xd, d.weight.Value.Data(), d.rows, hi-lo, d.out)
	}
	bd := d.bias.Value.Data()
	for s := 0; s < hi-lo; s++ {
		row := od[s*d.out : (s+1)*d.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
}

// InferScratch implements BatchInfer: dense layers need no scratch.
func (d *Dense) InferScratch() int { return 0 }

// ForwardBatchRange implements BatchInfer: convolution + bias per sample for
// rows [lo, hi), the conv sample loop (forwardRange) with no activation
// behind it. scratch holds InferScratch() float64s.
func (c *Conv2D) ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, scratch []float64) {
	c.forwardRange(dst, x, lo, hi, scratch, false, false)
}

// InferScratch implements BatchInfer: the plan's zero-bordered copy of one
// sample (InC·(InH+2·PadH)·(InW+2·PadW); none when unpadded), or one im2col
// panel for a strided convolution.
func (c *Conv2D) InferScratch() int { return c.plan.Scratch() }

// ForwardBatchRange implements BatchInfer: the window sweep. A window's
// maximum is its first in-bounds element, then any strictly greater one, so
// NaN and ±0 ties resolve as TrainForwardRange's argmax does.
func (p *MaxPool2D) ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, _ []float64) {
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	tensor.AssertDims("MaxPool2D.ForwardBatchRange x", x, tensor.Wildcard, inVol)
	tensor.AssertDims("MaxPool2D.ForwardBatchRange dst", dst, x.Dim(0), outVol)
	xd, od := x.Data(), dst.Data()
	for s := lo; s < hi; s++ {
		sBase := s * inVol
		oBase := s * outVol
		oi := 0
		for c := 0; c < g.InC; c++ {
			chanBase := sBase + c*g.InH*g.InW
			for oh := 0; oh < outH; oh++ {
				ih0 := oh*g.StrideH - g.PadH
				rowsInside := ih0 >= 0 && ih0+g.KH <= g.InH
				for ow := 0; ow < outW; ow++ {
					iw0 := ow*g.StrideW - g.PadW
					if rowsInside && iw0 >= 0 && iw0+g.KW <= g.InW {
						// the window lies wholly inside the input: same
						// first-element-then-strictly-greater sweep, no
						// per-element bounds tests
						at := chanBase + ih0*g.InW + iw0
						bestV := xd[at]
						for kh := 0; kh < g.KH; kh++ {
							for _, v := range xd[at : at+g.KW] {
								if v > bestV {
									bestV = v
								}
							}
							at += g.InW
						}
						od[oBase+oi] = bestV
						oi++
						continue
					}
					best := -1
					bestV := 0.0
					for kh := 0; kh < g.KH; kh++ {
						ih := ih0 + kh
						if ih < 0 || ih >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							iw := iw0 + kw
							if iw < 0 || iw >= g.InW {
								continue
							}
							idx := chanBase + ih*g.InW + iw
							if best == -1 || xd[idx] > bestV {
								best, bestV = idx, xd[idx]
							}
						}
					}
					od[oBase+oi] = bestV
					oi++
				}
			}
		}
	}
}

// InferScratch implements BatchInfer.
func (p *MaxPool2D) InferScratch() int { return 0 }

// ForwardBatchRange implements BatchInfer: the window-mean sweep.
func (p *AvgPool2D) ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, _ []float64) {
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	tensor.AssertDims("AvgPool2D.ForwardBatchRange x", x, tensor.Wildcard, inVol)
	tensor.AssertDims("AvgPool2D.ForwardBatchRange dst", dst, x.Dim(0), outVol)
	xd, od := x.Data(), dst.Data()
	winSize := float64(g.KH * g.KW)
	for s := lo; s < hi; s++ {
		sBase := s * inVol
		oBase := s * outVol
		oi := 0
		for c := 0; c < g.InC; c++ {
			chanBase := sBase + c*g.InH*g.InW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					sum := 0.0
					for kh := 0; kh < g.KH; kh++ {
						ih := oh*g.StrideH + kh - g.PadH
						if ih < 0 || ih >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							iw := ow*g.StrideW + kw - g.PadW
							if iw < 0 || iw >= g.InW {
								continue
							}
							sum += xd[chanBase+ih*g.InW+iw]
						}
					}
					od[oBase+oi] = sum / winSize
					oi++
				}
			}
		}
	}
}

// InferScratch implements BatchInfer.
func (p *AvgPool2D) InferScratch() int { return 0 }

// elementwiseVol returns the flattened per-sample volume shared by dst and x
// for shape-preserving element-wise layers, panicking on mismatch.
func elementwiseVol(op string, dst, x *tensor.Tensor) int {
	vol := x.Dim(1)
	tensor.AssertDims(op, dst, x.Dim(0), vol)
	return vol
}

// ForwardBatchRange implements BatchInfer: v > 0 ? v : +0 through
// tensor.ReLUBits, without a branch on the data.
func (l *ReLU) ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, _ []float64) {
	vol := elementwiseVol("ReLU.ForwardBatchRange dst", dst, x)
	xd, od := x.Data()[lo*vol:hi*vol], dst.Data()[lo*vol:hi*vol]
	for i, v := range xd {
		od[i] = math.Float64frombits(tensor.ReLUBits(v))
	}
}

// InferScratch implements BatchInfer.
func (l *ReLU) InferScratch() int { return 0 }
