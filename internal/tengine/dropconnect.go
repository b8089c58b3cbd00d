package tengine

import (
	"fmt"
	"strings"

	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// DropConnect wraps a compiled Engine with per-element Bernoulli weight
// masking: each training step independently zeroes a fraction p of every
// crossbar-mapped weight (parameters named "*.weight") for the duration of
// the forward+backward pass, then restores them. Dropped positions also get
// their gradient zeroed, so the optimizer never updates a weight the step
// never saw — the exact gradient of the masked objective.
//
// The point is fault-aware commissioning (the drop-connect hardening of
// arXiv:2404.15498): a stuck-at-0 cell is precisely a weight forced to zero,
// so training under random weight dropping teaches the network the
// redundancy that keeps accuracy flat when real cells later stick. Unlike
// regularising dropout there is NO 1/keep rescaling — a real fault is not
// compensated at inference time, so training must not pretend it is.
//
// Determinism contract: masks are drawn serially, in network parameter order
// and row-major element order, from the DropConnect's own RNG, before the
// (possibly pooled) kernels run. All weight mutation happens outside those
// kernels, so pooled and serial engines over the same seed produce
// bit-identical weights, and a steady stream of same-size batches allocates
// nothing.
type DropConnect struct {
	eng    *Engine
	p      float64
	r      *rng.RNG
	params []*nn.Param // "*.weight" parameters, in network order
	masks  [][]bool    // per param: dropped this step
	saved  [][]float64 // per param: pre-mask values
}

// NewDropConnect builds the masking wrapper around a compiled engine.
// p in [0, 1) is the per-element drop probability; r is consumed serially,
// one Bernoulli draw per weight element per step.
func NewDropConnect(eng *Engine, p float64, r *rng.RNG) *DropConnect {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("tengine: drop-connect probability must be in [0,1), got %g", p))
	}
	d := &DropConnect{eng: eng, p: p, r: r}
	for _, par := range eng.Network().Params() {
		if !strings.HasSuffix(par.Name, ".weight") {
			continue // biases live in digital logic: no cells to stick
		}
		d.params = append(d.params, par)
		d.masks = append(d.masks, make([]bool, par.Value.Len()))
		d.saved = append(d.saved, make([]float64, par.Value.Len()))
	}
	return d
}

// Step runs one masked training step: draw fresh masks, zero the dropped
// weights, ForwardBackward, restore the weights, zero the dropped
// positions' gradients. Param.Grad then holds the masked-objective batch
// gradient, ready for StepAndZero. Returns the loss; an ErrEmptyBatch from
// the engine propagates after the weights are restored (the masks were
// already applied), leaving gradients untouched.
func (d *DropConnect) Step(x *tensor.Tensor, labels []int) (float64, error) {
	// serial mask prepass: param order, row-major element order
	for pi, par := range d.params {
		data, mask, saved := par.Value.Data(), d.masks[pi], d.saved[pi]
		for j := range data {
			drop := d.r.Bernoulli(d.p)
			mask[j] = drop
			saved[j] = data[j]
			if drop {
				data[j] = 0
			}
		}
	}
	loss, err := d.eng.ForwardBackward(x, labels)
	for pi, par := range d.params {
		data, grad, mask, saved := par.Value.Data(), par.Grad.Data(), d.masks[pi], d.saved[pi]
		for j, drop := range mask {
			if drop {
				data[j] = saved[j]
				if err == nil {
					grad[j] = 0
				}
			}
		}
	}
	return loss, err
}
