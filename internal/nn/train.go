package nn

import (
	"math"

	"reramtest/internal/tensor"
)

// This file is the training twin of infer.go: destination-passing forward and
// backward kernels the batch-first training engine (internal/tengine) compiles
// against. The contract mirrors BatchInfer's, extended with gradients:
//
//   - TrainForwardRange must be bit-identical to ForwardBatchRange on the same
//     rows and must record whatever per-sample state the backward pass needs
//     into the caller's TrainCache, never into the layer.
//   - TrainBackwardRange must produce, for every sample row, that sample's
//     whole contribution: parameter gradients go into the sample's shard row
//     (the engine folds shard rows over the sample axis in ascending order,
//     one fixed accumulation chain per element), and dL/dx goes into gradIn
//     (nil when the caller does not need input gradients).
//
// Parallelism only ever partitions whole samples (forward/backward) or whole
// parameter elements (the shard fold) — never a summation axis — so a serial
// plan and a pooled one produce the same bits, and
// internal/tengine/testdata/golden_grads.json pins them: gradients, input
// gradients and the weights after momentum-SGD and drop-connect steps, for
// every seed model. internal/nn/gradcheck_test.go holds the gradients to
// finite differences of the loss.

// TrainDims sizes the per-layer caches a train plan must preallocate.
type TrainDims struct {
	// IntsPerSample is the per-sample int cache requirement (e.g. max-pool
	// argmax routing).
	IntsPerSample int
	// Scratch is the per-chunk float64 scratch requirement (private to one
	// concurrent range call, like BatchInfer.InferScratch).
	Scratch int
}

// TrainCache carries the preallocated buffers for one TrainKernel call. It is
// a value struct: kernels receive it by value and must not retain it.
type TrainCache struct {
	// Ints is the layer-wide int cache, n*IntsPerSample long; rows [lo, hi)
	// own the corresponding per-sample regions.
	Ints []int
	// Scratch is the per-chunk scratch, private to the call.
	Scratch []float64
	// Shard is the (n, ShardVol) per-sample parameter-gradient workspace where
	// ShardVol is the layer's total parameter volume in Params() order. Range
	// kernels write rows [lo, hi); the engine folds rows over the sample axis.
	Shard []float64
}

// TrainKernel is the batched training fast path a layer exposes to the train
// engine. Implementations must satisfy the bit-identity contract documented
// above.
type TrainKernel interface {
	// TrainDims reports the layer's cache requirements.
	TrainDims() TrainDims
	// TrainForwardRange writes output rows [lo, hi) of the training
	// forward pass into out (N, outVol), reading rows [lo, hi) of x (N, inVol)
	// and recording backward state into c.
	TrainForwardRange(out, x *tensor.Tensor, lo, hi int, c TrainCache)
	// TrainBackwardRange consumes gradOut rows [lo, hi) (dL/d out) together
	// with the forward input x and output out, writes the sample's parameter-
	// gradient contribution into c.Shard rows [lo, hi), and writes dL/dx rows
	// [lo, hi) into gradIn unless gradIn is nil.
	TrainBackwardRange(gradIn, gradOut, x, out *tensor.Tensor, lo, hi int, c TrainCache)
}

// TrainGradKernel is an optional TrainKernel extension for layers whose
// parameter gradients can be computed directly from the whole batch with an
// element-partitioned fold, skipping the per-sample shard workspace entirely.
// This matters for dense layers, where a (N, In*Out) shard would cost far
// more memory traffic than the gradient itself; convolutions keep the shard
// path because their parameter volume is small and their per-sample column
// expansion would otherwise be recomputed per worker.
//
// The bit-identity contract is the same as the shard fold's: units partition
// the parameter's gradient elements, and every element's whole sample fold
// runs inside one TrainGradRange call in ascending sample order — the same
// accumulation chain as the shard fold — so worker count never changes a bit.
type TrainGradKernel interface {
	// TrainGradUnits returns the length of the partitionable unit axis for
	// parameter i of Params(); a unit may own several contiguous gradient
	// elements (e.g. one weight-matrix row).
	TrainGradUnits(param int) int
	// TrainGradRange overwrites the batch gradient of units [lo, hi) of
	// parameter i of Params() in the parameter's Grad tensor, reading the
	// layer input x and dL/d(output) gradOut.
	TrainGradRange(param int, gradOut, x *tensor.Tensor, lo, hi int)
}

// TrainBackPrep is an optional TrainKernel extension: a serial hook the
// engine runs once per backward pass, before the chunked TrainBackwardRange
// dispatch, and only when the layer must produce dL/dx. Dense layers use it
// to refresh the transposed weight view their dx kernel streams row-wise;
// ranged bodies may then read what the hook prepared without synchronizing.
type TrainBackPrep interface {
	TrainBackPrep()
}

// ---------------------------------------------------------------- Dense

// TrainDims implements TrainKernel: dense layers need no caches or scratch.
func (d *Dense) TrainDims() TrainDims { return TrainDims{} }

// TrainForwardRange implements TrainKernel via the shared inference kernel
// (dense layers cache nothing the backward pass cannot recover from x).
func (d *Dense) TrainForwardRange(out, x *tensor.Tensor, lo, hi int, _ TrainCache) {
	d.ForwardBatchRange(out, x, lo, hi, nil)
}

// TrainBackPrep implements the serial pre-backward hook: it refreshes the
// transposed weight view the ranged dx kernel streams row-wise. The engine
// calls it only when this layer must produce dL/dx, so plain training never
// pays for transposing an untapped first layer.
func (d *Dense) TrainBackPrep() {
	if d.wT == nil {
		d.wT = make([]float64, d.in*d.out)
	}
	wd := d.wT
	src := d.weight.Value.Data()
	for i := 0; i < d.in; i++ {
		row := src[i*d.out : (i+1)*d.out]
		for j, v := range row {
			wd[j*d.in+i] = v
		}
	}
}

// TrainBackwardRange implements TrainKernel: only dL/dx is sample-local for a
// dense layer — parameter gradients go through the direct TrainGradKernel
// fold below, so no shard rows are written.
func (d *Dense) TrainBackwardRange(gradIn, gradOut, _, _ *tensor.Tensor, lo, hi int, _ TrainCache) {
	if gradIn == nil {
		return
	}
	// One ranged matmul covering samples [lo, hi) against the weight view
	// TrainBackPrep transposed: every dL/dx element sums the same terms in
	// the same ascending order as the g·Wᵀ register dot product
	// (MatMulTransBSlices), so any sample partition yields the same bits as
	// one full-batch call — pipelined across elements instead of serialized
	// on add latency.
	gd, gid := gradOut.Data(), gradIn.Data()
	tensor.MatMulNoSkipSlices(gid[lo*d.in:hi*d.in], gd[lo*d.out:hi*d.out], d.wT, hi-lo, d.out, d.in)
}

// TrainGradUnits implements TrainGradKernel: weight gradients partition by
// input row (each row owns Out contiguous elements), bias gradients by
// element.
func (d *Dense) TrainGradUnits(param int) int {
	if param == 0 {
		return d.in
	}
	return d.out
}

// TrainGradRange implements TrainGradKernel. The weight fold computes the
// same per-element addition chain as xᵀ·g through MatMulTransASlices —
// samples ascending, same zero-skip — but iterates row-outer/sample-inner, so
// each 1×Out gradient row is zeroed and accumulated while cache-hot instead
// of the whole In×Out matrix being re-streamed once per sample: identical
// bits, a fraction of the memory traffic. The bias fold is the sample-outer
// column sum restricted to columns [lo, hi).
func (d *Dense) TrainGradRange(param int, gradOut, x *tensor.Tensor, lo, hi int) {
	n := gradOut.Dim(0)
	gd := gradOut.Data()
	in, out := d.in, d.out
	if param == 0 {
		xd, wg := x.Data(), d.weight.Grad.Data()
		for j := lo * out; j < hi*out; j++ {
			wg[j] = 0
		}
		// sample-outer sweep over the x row segment [lo, hi) — the
		// MatMulTransASlices loop shape (sequential x reads, ascending
		// gradient rows) restricted to this element range. Two samples per
		// sweep: each gradient row is loaded and stored once for both
		// contributions, and (old + av0·b0) + av1·b1 performs the same adds
		// on the same values in the same order as two single-sample sweeps,
		// so every element keeps MatMulTransASlices's addition chain.
		p := 0
		for ; p+1 < n; p += 2 {
			x0 := xd[p*in+lo : p*in+hi]
			x1 := xd[(p+1)*in+lo : (p+1)*in+hi]
			g0 := gd[p*out : (p+1)*out]
			g1 := gd[(p+1)*out : (p+2)*out]
			for di, av0 := range x0 {
				av1 := x1[di]
				i := lo + di
				if av0 != 0 && av1 != 0 {
					drow := wg[i*out : (i+1)*out]
					for j, b0 := range g0 {
						v := drow[j] + av0*b0
						drow[j] = v + av1*g1[j]
					}
				} else if av0 != 0 {
					drow := wg[i*out : (i+1)*out]
					for j, b0 := range g0 {
						drow[j] += av0 * b0
					}
				} else if av1 != 0 {
					drow := wg[i*out : (i+1)*out]
					for j, b1 := range g1 {
						drow[j] += av1 * b1
					}
				}
			}
		}
		if p < n {
			xrow := xd[p*in+lo : p*in+hi]
			grow := gd[p*out : (p+1)*out]
			for di, av := range xrow {
				if av == 0 {
					continue
				}
				i := lo + di
				drow := wg[i*out : (i+1)*out]
				for j, bv := range grow {
					drow[j] += av * bv
				}
			}
		}
		return
	}
	bg := d.bias.Grad.Data()
	for j := lo; j < hi; j++ {
		bg[j] = 0
	}
	for p := 0; p < n; p++ {
		row := gd[p*out : (p+1)*out]
		for j := lo; j < hi; j++ {
			bg[j] += row[j]
		}
	}
}

// ---------------------------------------------------------------- Conv2D

// TrainDims implements TrainKernel: scratch for one im2col column matrix plus
// one gradient column matrix.
func (c *Conv2D) TrainDims() TrainDims {
	cols := c.geom.InC * c.geom.KH * c.geom.KW * c.geom.OutH() * c.geom.OutW()
	return TrainDims{Scratch: 2 * cols}
}

// TrainForwardRange implements TrainKernel via the shared inference kernel;
// the backward pass re-expands im2col per sample instead of caching columns.
func (c *Conv2D) TrainForwardRange(out, x *tensor.Tensor, lo, hi int, tc TrainCache) {
	c.ForwardBatchRange(out, x, lo, hi, tc.Scratch)
}

// TrainBackwardRange implements TrainKernel. Per sample the shard row is
// [dW_s (OutC*CKK) | db_s (OutC)]: dW_s = g_s·cols_sᵀ and db_s the spatial row
// sums (MatMulTransBSlices and an ascending row sum); dL/dx is Wᵀ·g_s
// (MatMulTransASlices) scattered back through Col2ImInto.
// An empty Shard (a plan compiled without parameter gradients — the O-TP /
// FGSM input-gradient tap) skips the dW/db work entirely.
func (c *Conv2D) TrainBackwardRange(gradIn, gradOut, x, _ *tensor.Tensor, lo, hi int, tc TrainCache) {
	inVol := c.sampleVolume()
	spatial := c.geom.OutH() * c.geom.OutW()
	ckk := c.geom.InC * c.geom.KH * c.geom.KW
	outVol := c.outC * spatial
	cols := tc.Scratch[:ckk*spatial]
	gcol := tc.Scratch[ckk*spatial : 2*ckk*spatial]
	pv := c.outC*ckk + c.outC
	xd, gd, wd := x.Data(), gradOut.Data(), c.weight.Value.Data()
	for s := lo; s < hi; s++ {
		grow := gd[s*outVol : (s+1)*outVol]
		if len(tc.Shard) > 0 {
			tensor.Im2ColInto(cols, xd[s*inVol:(s+1)*inVol], c.geom)
			srow := tc.Shard[s*pv : (s+1)*pv]
			tensor.MatMulTransBSlices(srow[:c.outC*ckk], grow, cols, c.outC, spatial, ckk)
			for oc := 0; oc < c.outC; oc++ {
				row := grow[oc*spatial : (oc+1)*spatial]
				sum := 0.0
				for _, v := range row {
					sum += v
				}
				srow[c.outC*ckk+oc] = sum
			}
		}
		if gradIn != nil {
			tensor.MatMulTransASlices(gcol, wd, grow, c.outC, ckk, spatial)
			tensor.Col2ImInto(gradIn.Data()[s*inVol:(s+1)*inVol], gcol, c.geom)
		}
	}
}

// ---------------------------------------------------------------- MaxPool2D

// TrainDims implements TrainKernel: one argmax int per output element.
func (p *MaxPool2D) TrainDims() TrainDims {
	return TrainDims{IntsPerSample: p.geom.InC * p.geom.OutH() * p.geom.OutW()}
}

// TrainForwardRange implements TrainKernel: the inference window sweep, with
// the winning flat batch index of every window recorded into the caller's int
// cache.
func (p *MaxPool2D) TrainForwardRange(out, x *tensor.Tensor, lo, hi int, tc TrainCache) {
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	tensor.AssertDims("MaxPool2D.TrainForwardRange x", x, tensor.Wildcard, inVol)
	tensor.AssertDims("MaxPool2D.TrainForwardRange dst", out, x.Dim(0), outVol)
	xd, od := x.Data(), out.Data()
	for s := lo; s < hi; s++ {
		sBase := s * inVol
		oBase := s * outVol
		oi := 0
		for c := 0; c < g.InC; c++ {
			chanBase := sBase + c*g.InH*g.InW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					best := -1
					bestV := 0.0
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
							if best == -1 || xd[idx] > bestV {
								best, bestV = idx, xd[idx]
							}
						}
					}
					od[oBase+oi] = bestV
					tc.Ints[oBase+oi] = best
					oi++
				}
			}
		}
	}
}

// TrainBackwardRange implements TrainKernel: each output gradient routes to
// the input element that won its window, scattering in ascending output order
// within the sample.
func (p *MaxPool2D) TrainBackwardRange(gradIn, gradOut, _, _ *tensor.Tensor, lo, hi int, tc TrainCache) {
	if gradIn == nil {
		return
	}
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outVol := g.InC * g.OutH() * g.OutW()
	gd, gid := gradOut.Data(), gradIn.Data()
	for s := lo; s < hi; s++ {
		grow := gid[s*inVol : (s+1)*inVol]
		for i := range grow {
			grow[i] = 0
		}
		for oi := s * outVol; oi < (s+1)*outVol; oi++ {
			if idx := tc.Ints[oi]; idx >= 0 {
				gid[idx] += gd[oi]
			}
		}
	}
}

// ---------------------------------------------------------------- AvgPool2D

// TrainDims implements TrainKernel: the spread is recomputed from geometry.
func (p *AvgPool2D) TrainDims() TrainDims { return TrainDims{} }

// TrainForwardRange implements TrainKernel via the shared inference kernel.
func (p *AvgPool2D) TrainForwardRange(out, x *tensor.Tensor, lo, hi int, _ TrainCache) {
	p.ForwardBatchRange(out, x, lo, hi, nil)
}

// TrainBackwardRange implements TrainKernel: each output gradient spreads
// uniformly over its window, in ascending output order within the sample.
func (p *AvgPool2D) TrainBackwardRange(gradIn, gradOut, _, _ *tensor.Tensor, lo, hi int, _ TrainCache) {
	if gradIn == nil {
		return
	}
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	gd, gid := gradOut.Data(), gradIn.Data()
	winSize := float64(g.KH * g.KW)
	for s := lo; s < hi; s++ {
		row := gid[s*inVol : (s+1)*inVol]
		for i := range row {
			row[i] = 0
		}
		sBase := s * inVol
		oBase := s * outVol
		oi := 0
		for c := 0; c < g.InC; c++ {
			chanBase := sBase + c*g.InH*g.InW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					v := gd[oBase+oi] / winSize
					oi++
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
							gid[chanBase+ih*g.InW+iw] += v
						}
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------- activations

// TrainDims implements TrainKernel: the gate is recovered from the output.
func (l *ReLU) TrainDims() TrainDims { return TrainDims{} }

// TrainForwardRange implements TrainKernel via the shared inference kernel.
func (l *ReLU) TrainForwardRange(out, x *tensor.Tensor, lo, hi int, _ TrainCache) {
	l.ForwardBatchRange(out, x, lo, hi, nil)
}

// TrainBackwardRange implements TrainKernel: the forward mask x > 0 is
// recovered as out > 0 (out = x exactly where x > 0, and 0 elsewhere), so no
// cache is needed.
func (l *ReLU) TrainBackwardRange(gradIn, gradOut, _, out *tensor.Tensor, lo, hi int, _ TrainCache) {
	if gradIn == nil {
		return
	}
	vol := elementwiseVol("ReLU.TrainBackwardRange gradIn", gradIn, gradOut)
	gd, od, gid := gradOut.Data(), out.Data(), gradIn.Data()
	for i := lo * vol; i < hi*vol; i++ {
		if od[i] > 0 {
			gid[i] = gd[i]
		} else {
			gid[i] = 0
		}
	}
}

// ---------------------------------------------------------------- losses

// CrossEntropyInto computes the mean softmax cross-entropy of a (N, n) logit
// batch against integer class labels and writes its gradient with respect to
// the logits, (softmax(z) - onehot(y)) / N, into grad, reusing grad's
// storage: zero allocations.
func CrossEntropyInto(grad, logits *tensor.Tensor, labels []int) float64 {
	n := logits.Dim(0)
	if len(labels) != n {
		panic("nn: CrossEntropyInto label count does not match batch")
	}
	k := logits.Len() / n
	tensor.AssertDims("nn.CrossEntropyInto grad", grad, n, k)
	pd := grad.Data()
	copy(pd, logits.Data())
	SoftmaxInPlace(grad)
	loss := 0.0
	inv := 1 / float64(n)
	for s, y := range labels {
		if y < 0 || y >= k {
			panic("nn: CrossEntropyInto label out of range")
		}
		p := pd[s*k+y]
		loss -= math.Log(math.Max(p, 1e-300))
		row := pd[s*k : (s+1)*k]
		for j := range row {
			row[j] *= inv
		}
		row[y] -= inv
	}
	return loss * inv
}

// SoftCrossEntropyInto computes the mean cross-entropy of a (N, n) logit
// batch against target probability distributions (same shape) and writes its
// gradient with respect to the logits, (softmax(z) - target) / N, into grad
// with zero allocations. This is the loss the O-TP generator minimises: the
// paper's Eq. 1 combines a uniform soft label on the clean model with a hard
// label on the fault model, both of which are instances of this loss.
func SoftCrossEntropyInto(grad, logits, target *tensor.Tensor) float64 {
	if logits.Len() != target.Len() || grad.Len() != logits.Len() {
		panic("nn: SoftCrossEntropyInto shape mismatch")
	}
	n := logits.Dim(0)
	k := logits.Len() / n
	tensor.AssertDims("nn.SoftCrossEntropyInto grad", grad, n, k)
	pd, td := grad.Data(), target.Data()
	copy(pd, logits.Data())
	SoftmaxInPlace(grad)
	loss := 0.0
	inv := 1 / float64(n)
	for i, p := range pd {
		loss -= td[i] * math.Log(math.Max(p, 1e-300))
		pd[i] = (p - td[i]) * inv
	}
	return loss * inv
}
