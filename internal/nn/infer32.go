package nn

import "reramtest/internal/tensor"

// BatchInferF32 is the float32 fast-tier mirror of BatchInfer. The engine
// keeps a per-layer converted-parameter cache (sized by InferParamsF32,
// filled by LoadParamsF32 at compile/rebind time) so the hot path touches
// only float32 and makes no conversions and no allocations.
// ForwardBatchRangeF32 writes output rows [lo, hi) of dst (n × outVol),
// reading rows [lo, hi) of x (n × inVol), both bare row-major slices; vol
// arguments carry the per-sample volumes for layers that don't know their
// own (element-wise activations). scratch holds InferScratchF32() float32s
// private to the call, so disjoint ranges run concurrently.
//
// Contract: same window/loop order as the f64 reference, float32 arithmetic
// with the tensor package's documented fold order — bounded-ULP versus
// Forward, never bit-identical. Implementations must not touch training
// caches.
type BatchInferF32 interface {
	ForwardBatchRangeF32(dst, x []float32, n, inVol, outVol, lo, hi int, params, scratch []float32)
	// InferParamsF32 returns the converted-parameter cache size in float32s.
	InferParamsF32() int
	// LoadParamsF32 converts the layer's f64 parameters into the cache laid
	// out however ForwardBatchRangeF32 wants them.
	LoadParamsF32(dst []float32)
	// InferScratchF32 returns the per-call scratch requirement in float32s.
	InferScratchF32() int
}

// InferParamsF32 implements BatchInferF32: the transposed (Out, In) weight
// cache followed by the bias.
func (d *Dense) InferParamsF32() int { return d.in*d.out + d.out }

// LoadParamsF32 implements BatchInferF32: weights land TRANSPOSED (Out, In)
// so each output is a contiguous register dot product, bias follows.
func (d *Dense) LoadParamsF32(dst []float32) {
	wd := d.weight.Value.Data()
	for j := 0; j < d.out; j++ {
		row := dst[j*d.in : (j+1)*d.in]
		for k := 0; k < d.in; k++ {
			row[k] = float32(wd[k*d.out+j])
		}
	}
	bd := d.bias.Value.Data()
	for j, v := range bd {
		dst[d.in*d.out+j] = float32(v)
	}
}

// InferScratchF32 implements BatchInferF32.
func (d *Dense) InferScratchF32() int { return 0 }

// ForwardBatchRangeF32 implements BatchInferF32 via the fused dense kernel
// (without the ReLU epilogue — the engine fuses a following ReLU by calling
// ForwardBatchRangeF32Fused directly).
func (d *Dense) ForwardBatchRangeF32(dst, x []float32, n, _, _, lo, hi int, params, _ []float32) {
	d.ForwardBatchRangeF32Fused(dst, x, n, lo, hi, params, false)
}

// ForwardBatchRangeF32Fused is ForwardBatchRangeF32 with an optionally fused
// ReLU epilogue. Clamping the already rounded float32 sum is numerically
// identical to a separate ReLU pass, so the engine elides the activation
// step entirely when a ReLU follows a dense layer on the F32 tier.
func (d *Dense) ForwardBatchRangeF32Fused(dst, x []float32, n, lo, hi int, params []float32, relu bool) {
	wT := params[:d.in*d.out]
	bias := params[d.in*d.out:]
	tensor.DenseForwardF32(dst, x, wT, bias, n, d.in, d.out, lo, hi, relu)
}

// InferParamsF32 implements BatchInferF32: the (OutC, C·KH·KW) kernel matrix
// in its native layout followed by the bias.
func (c *Conv2D) InferParamsF32() int {
	ckk := c.geom.InC * c.geom.KH * c.geom.KW
	return c.outC*ckk + c.outC
}

// LoadParamsF32 implements BatchInferF32.
func (c *Conv2D) LoadParamsF32(dst []float32) {
	ckk := c.geom.InC * c.geom.KH * c.geom.KW
	tensor.ConvertF64ToF32(dst[:c.outC*ckk], c.weight.Value.Data())
	tensor.ConvertF64ToF32(dst[c.outC*ckk:c.outC*ckk+c.outC], c.bias.Value.Data())
}

// InferScratchF32 implements BatchInferF32: one f32 im2col column matrix.
func (c *Conv2D) InferScratchF32() int {
	return c.geom.InC * c.geom.KH * c.geom.KW * c.geom.OutH() * c.geom.OutW()
}

// ForwardBatchRangeF32 implements BatchInferF32: f32 im2col + f32 matmul per
// sample, same window and sample order as the f64 path.
func (c *Conv2D) ForwardBatchRangeF32(dst, x []float32, _, _, _, lo, hi int, params, scratch []float32) {
	inVol := c.sampleVolume()
	spatial := c.geom.OutH() * c.geom.OutW()
	ckk := c.geom.InC * c.geom.KH * c.geom.KW
	outVol := c.outC * spatial
	wd := params[:c.outC*ckk]
	bd := params[c.outC*ckk:]
	cols := scratch[:ckk*spatial]
	for s := lo; s < hi; s++ {
		tensor.Im2ColIntoF32(cols, x[s*inVol:(s+1)*inVol], c.geom)
		out := dst[s*outVol : (s+1)*outVol]
		tensor.MatMulSlicesF32(out, wd, cols, c.outC, ckk, spatial)
		for oc := 0; oc < c.outC; oc++ {
			b := bd[oc]
			row := out[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] += b
			}
		}
	}
}

// InferParamsF32 implements BatchInferF32.
func (p *MaxPool2D) InferParamsF32() int { return 0 }

// LoadParamsF32 implements BatchInferF32.
func (p *MaxPool2D) LoadParamsF32([]float32) {}

// InferScratchF32 implements BatchInferF32.
func (p *MaxPool2D) InferScratchF32() int { return 0 }

// ForwardBatchRangeF32 implements BatchInferF32: the Forward window sweep in
// float32. Comparisons are exact in any width, so the selected element per
// window matches the f64 path whenever the inputs round distinctly.
func (p *MaxPool2D) ForwardBatchRangeF32(dst, x []float32, _, _, _, lo, hi int, _, _ []float32) {
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	for s := lo; s < hi; s++ {
		sBase := s * inVol
		oBase := s * outVol
		oi := 0
		for c := 0; c < g.InC; c++ {
			chanBase := sBase + c*g.InH*g.InW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					best := -1
					bestV := float32(0)
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
							idx := chanBase + ih*g.InW + iw
							if best == -1 || x[idx] > bestV {
								best, bestV = idx, x[idx]
							}
						}
					}
					dst[oBase+oi] = bestV
					oi++
				}
			}
		}
	}
}

// InferParamsF32 implements BatchInferF32.
func (p *AvgPool2D) InferParamsF32() int { return 0 }

// LoadParamsF32 implements BatchInferF32.
func (p *AvgPool2D) LoadParamsF32([]float32) {}

// InferScratchF32 implements BatchInferF32.
func (p *AvgPool2D) InferScratchF32() int { return 0 }

// ForwardBatchRangeF32 implements BatchInferF32: the window-mean sweep with
// a float32 accumulator.
func (p *AvgPool2D) ForwardBatchRangeF32(dst, x []float32, _, _, _, lo, hi int, _, _ []float32) {
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	winSize := float32(g.KH * g.KW)
	for s := lo; s < hi; s++ {
		sBase := s * inVol
		oBase := s * outVol
		oi := 0
		for c := 0; c < g.InC; c++ {
			chanBase := sBase + c*g.InH*g.InW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					sum := float32(0)
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
							sum += x[chanBase+ih*g.InW+iw]
						}
					}
					dst[oBase+oi] = sum / winSize
					oi++
				}
			}
		}
	}
}

// InferParamsF32 implements BatchInferF32.
func (l *ReLU) InferParamsF32() int { return 0 }

// LoadParamsF32 implements BatchInferF32.
func (l *ReLU) LoadParamsF32([]float32) {}

// InferScratchF32 implements BatchInferF32.
func (l *ReLU) InferScratchF32() int { return 0 }

// ForwardBatchRangeF32 implements BatchInferF32: max(0, x). ReLU in float32
// equals float32(ReLU in float64) exactly, so this layer adds nothing to the
// tier's error envelope.
func (l *ReLU) ForwardBatchRangeF32(dst, x []float32, _, vol, _, lo, hi int, _, _ []float32) {
	for i := lo * vol; i < hi*vol; i++ {
		if v := x[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}
