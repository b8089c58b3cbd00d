package nn

import "reramtest/internal/tensor"

// ConvBlock is a Conv2D run as one inference step with the ReLU, and the
// 2×2 max-pool if there is one, that follow it in the network: per sample,
// the register tiles read the (bordered) input through the layer's
// tensor.ConvPlan and store bias + ReLU (→ tensor.ReLUMaxPool2x2 over the
// cache-hot ReLU'd product), so neither the convolution's nor the ReLU's
// full-batch output is ever written. It implements BatchInfer with the bits
// of the layers' ForwardBatchRange chain.
type ConvBlock struct {
	conv *Conv2D
	pool bool // false: the block ends at the ReLU
}

// FuseConvBlock reports whether layers begins with a run the engine can
// execute as one ConvBlock — Conv2D, ReLU, then optionally a MaxPool2D with a
// 2×2 window, stride 2 and no padding that reads the convolution's
// (OutC, OutH, OutW) map as such, the map at least 2×2 (on a one-pixel-wide
// map the layer's window reaches past the edge) — and returns the block with
// the number of layers it replaces (2 or 3), or nil and 0. Any other pool
// runs as its own MaxPool2D step behind a conv → ReLU block. Fusion is
// decided by geometry alone, so two networks of one architecture fuse alike.
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
		want := tensor.ConvGeom{InC: conv.outC, InH: conv.geom.OutH(), InW: conv.geom.OutW(),
			KH: 2, KW: 2, StrideH: 2, StrideW: 2}
		if p, ok := layers[2].(*MaxPool2D); ok && p.geom == want && want.InH >= 2 && want.InW >= 2 {
			return &ConvBlock{conv: conv, pool: true}, 3
		}
	}
	return &ConvBlock{conv: conv}, 2
}

// ForwardBatchRange implements BatchInfer: rows [lo, hi) of x through
// conv → ReLU (→ 2×2 max-pool) into dst.
func (b *ConvBlock) ForwardBatchRange(dst, x *tensor.Tensor, lo, hi int, scratch []float64) {
	b.conv.forwardRange(dst, x, lo, hi, scratch, true, b.pool)
}

// InferScratch implements BatchInfer: the convolution's scratch (the
// bordered input copy, or the im2col panel of a strided convolution), plus
// one sample's convolution output when a pool reads it instead of dst.
func (b *ConvBlock) InferScratch() int {
	n := b.conv.InferScratch()
	if b.pool {
		n += b.conv.outC * b.conv.geom.OutH() * b.conv.geom.OutW()
	}
	return n
}

// forwardRange is the conv sample loop of the inference path: the layer's
// tensor.ConvPlan convolves each sample straight from its input — a
// zero-bordered copy of it when padded, its im2col panel when strided — on
// the register tiles, with MatMulSlices's per-element fold. A bare Conv2D
// stores the product plus the bias; a block stores bias + ReLU straight from
// the tile, into dst or, before the pool, into a scratch panel that
// tensor.ReLUMaxPool2x2 pools into dst. scratch holds the plan's scratch
// and, with a pool, that panel.
func (c *Conv2D) forwardRange(dst, x *tensor.Tensor, lo, hi int, scratch []float64, relu, pool bool) {
	inVol := c.sampleVolume()
	outH, outW := c.geom.OutH(), c.geom.OutW()
	convVol := c.outC * outH * outW
	planVol := c.plan.Scratch()
	outVol, need := convVol, planVol
	if pool {
		outVol = c.outC * (outH / 2) * (outW / 2)
		need += convVol
	}
	tensor.AssertDims("Conv2D.ForwardBatchRange x", x, tensor.Wildcard, inVol)
	tensor.AssertDims("Conv2D.ForwardBatchRange dst", dst, x.Dim(0), outVol)
	if len(scratch) < need {
		panic("nn: Conv2D.ForwardBatchRange scratch too small")
	}
	ps := scratch[:planVol]
	xd, od, wd, bd := x.Data(), dst.Data(), c.weight.Value.Data(), c.bias.Value.Data()
	for s := lo; s < hi; s++ {
		in, out := xd[s*inVol:(s+1)*inVol], od[s*outVol:(s+1)*outVol]
		if pool {
			panel := scratch[planVol:need]
			c.plan.Forward(panel, wd, in, bd, ps, true)
			tensor.ReLUMaxPool2x2(out, panel, c.outC, outH, outW)
			continue
		}
		c.plan.Forward(out, wd, in, bd, ps, relu)
	}
}
