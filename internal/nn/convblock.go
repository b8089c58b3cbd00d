package nn

import (
	"math"

	"reramtest/internal/tensor"
)

// ConvBlock is a Conv2D run as one inference step with the ReLU, and the
// MaxPool2D if there is one, that follow it in the network: per sample,
// im2col → register-tiled matmul storing bias + ReLU (→ window maximum over
// the cache-hot ReLU'd product), so neither the convolution's nor the ReLU's
// full-batch output is ever written. It implements BatchInfer with the bits
// of the three layers' Forward chain.
type ConvBlock struct {
	conv *Conv2D
	pool *MaxPool2D // nil: the block ends at the ReLU
}

// FuseConvBlock reports whether layers begins with a run the engine can
// execute as one ConvBlock — Conv2D, ReLU, then optionally a MaxPool2D that
// reads the convolution's (OutC, OutH, OutW) map as such — and returns the
// block with the number of layers it replaces (2 or 3), or nil and 0.
func FuseConvBlock(layers []Layer) (*ConvBlock, int) {
	if len(layers) < 2 {
		return nil, 0
	}
	conv, ok := layers[0].(*Conv2D)
	if !ok {
		return nil, 0
	}
	if _, ok := layers[1].(*ReLU); !ok {
		return nil, 0
	}
	if len(layers) > 2 {
		if p, ok := layers[2].(*MaxPool2D); ok &&
			p.geom.InC == conv.outC && p.geom.InH == conv.geom.OutH() && p.geom.InW == conv.geom.OutW() {
			return &ConvBlock{conv: conv, pool: p}, 3
		}
	}
	return &ConvBlock{conv: conv}, 2
}

// ForwardBatchRange implements BatchInfer: rows [lo, hi) of x through
// conv → ReLU (→ max-pool) into dst.
func (b *ConvBlock) ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, scratch []float64) {
	b.conv.forwardRange(dst, x, lo, hi, scratch, true, b.pool)
}

// InferScratch implements BatchInfer: the im2col column matrix, plus one
// sample's convolution output when a pool reads it instead of dst.
func (b *ConvBlock) InferScratch() int {
	n := b.conv.InferScratch()
	if b.pool != nil {
		n += b.conv.outC * b.conv.geom.OutH() * b.conv.geom.OutW()
	}
	return n
}

// forwardRange is the conv sample loop of the inference path: im2col, then a
// register-tiled kernel with the per-element fold of the MatMulSlices that
// Forward calls, on the sample's (OutC, spatial) product. A bare Conv2D
// stores the product (tensor.MatMulBlockedSlices) and adds the bias; a block
// stores bias + ReLU straight from the tile (tensor.MatMulBlockedBiasReLU),
// into dst or, before a pool, into a scratch panel whose window maxima go to
// the pool's output row. scratch holds the column matrix and, with a pool,
// that panel.
func (c *Conv2D) forwardRange(dst, x *tensor.Tensor, lo, hi int, scratch []float64, relu bool, pool *MaxPool2D) {
	inVol := c.sampleVolume()
	spatial := c.geom.OutH() * c.geom.OutW()
	ckk := c.geom.InC * c.geom.KH * c.geom.KW
	convVol := c.outC * spatial
	outVol, need := convVol, ckk*spatial
	if pool != nil {
		outVol = pool.geom.InC * pool.geom.OutH() * pool.geom.OutW()
		need += convVol
	}
	tensor.AssertDims("Conv2D.ForwardBatchRange x", x, tensor.Wildcard, inVol)
	tensor.AssertDims("Conv2D.ForwardBatchRange dst", dst, x.Dim(0), outVol)
	if len(scratch) < need {
		panic("nn: Conv2D.ForwardBatchRange scratch too small")
	}
	cols := scratch[:ckk*spatial]
	xd, od, wd, bd := x.Data(), dst.Data(), c.weight.Value.Data(), c.bias.Value.Data()
	for s := lo; s < hi; s++ {
		tensor.Im2ColInto(cols, xd[s*inVol:(s+1)*inVol], c.geom)
		out := od[s*outVol : (s+1)*outVol]
		switch {
		case pool != nil:
			panel := scratch[ckk*spatial : need]
			tensor.MatMulBlockedBiasReLU(panel, wd, cols, bd, c.outC, ckk, spatial)
			reluMaxPool(out, panel, pool.geom)
		case relu:
			tensor.MatMulBlockedBiasReLU(out, wd, cols, bd, c.outC, ckk, spatial)
		default:
			tensor.MatMulBlockedSlices(out, wd, cols, c.outC, ckk, spatial)
			for oc, b := range bd {
				row := out[oc*spatial : (oc+1)*spatial]
				for i := range row {
					row[i] += b
				}
			}
		}
	}
}

// reluMaxPool writes the max-pool of one sample's ReLU'd panel into out:
// panel is the (g.InC, g.InH, g.InW) output of the convolution's ReLU, g the
// pool's geometry. Values after the ReLU are never NaN and never −0, so they
// order as their bit patterns do and a window's maximum does not depend on
// the order it is taken in: it is the unsigned maximum of the in-bounds
// elements' bits, starting from +0. That is MaxPool2D.Forward's "first
// in-bounds element, then any strictly greater" on such values, including a
// window clipped by padding and one that sees padding only (+0 both ways).
func reluMaxPool(out, panel []float64, g tensor.ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	for c := range g.InC {
		ch := panel[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for oh := 0; oh < outH; oh++ {
			o := out[(c*outH+oh)*outW : (c*outH+oh+1)*outW]
			clear(o)
			ih0 := oh*g.StrideH - g.PadH
			ihEnd := min(ih0+g.KH, g.InH)
			for ih := max(ih0, 0); ih < ihEnd; ih += 2 {
				r0 := ch[ih*g.InW : (ih+1)*g.InW]
				r1 := r0 // an odd last row is folded twice: max is idempotent
				if ih+1 < ihEnd {
					r1 = ch[(ih+1)*g.InW : (ih+2)*g.InW]
				}
				foldPoolRows(o, r0, r1, g.KW, g.StrideW, g.PadW)
			}
		}
	}
}

// foldPoolRows raises each running window maximum in o by the elements of
// the ReLU'd rows r0 and r1 its window covers, r0 and r1 being input rows of
// the channel. It sweeps the output row once per window column — a long loop
// over the outputs whose window has that column in bounds — rather than
// looping over each window's few columns in turn, and takes two input rows
// per sweep.
func foldPoolRows(o, r0, r1 []float64, kw, stride, pad int) {
	for kx := -pad; kx < kw-pad; kx++ {
		// the outputs whose column ow*stride + kx lands in [0, len(r0))
		lo, hi := 0, 0
		if kx < 0 {
			lo = (-kx + stride - 1) / stride
		}
		if last := len(r0) - 1 - kx; last >= 0 {
			hi = min(len(o), last/stride+1)
		}
		for ow := lo; ow < hi; ow++ {
			j := ow*stride + kx
			o[ow] = math.Float64frombits(max(math.Float64bits(o[ow]), math.Float64bits(r0[j]), math.Float64bits(r1[j])))
		}
	}
}
