package nn

import (
	"fmt"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// Dense is a fully-connected layer computing y = x·W + b with W stored
// (In, Out).
type Dense struct {
	name   string
	in     int
	out    int
	weight *Param    // (In, Out)
	bias   *Param    // (Out)
	rows   []int     // tensor.RowOffsets(In, Out): the forward pass reads weight through it
	wT     []float64 // (Out, In) transposed-weight cache for the train dx kernel
}

// NewDense builds a fully-connected layer with He-initialised weights.
func NewDense(name string, r *rng.RNG, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense %q needs positive dims, got %dx%d", name, in, out))
	}
	w := heInit(r, in, in, out)
	return &Dense{
		name:   name,
		in:     in,
		out:    out,
		weight: newParam(name+".weight", w),
		bias:   newParam(name+".bias", tensor.New(out)),
		rows:   tensor.RowOffsets(in, out),
	}
}

// Name returns the layer name.
func (d *Dense) Name() string { return d.name }

// In returns the input width.
func (d *Dense) In() int { return d.in }

// Out returns the output width.
func (d *Dense) Out() int { return d.out }

// Params returns the weight matrix and bias vector.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// OutputShape implements Layer.
func (d *Dense) OutputShape([]int) []int { return []int{d.out} }

// Clone deep-copies the layer.
func (d *Dense) Clone() Layer {
	return &Dense{name: d.name, in: d.in, out: d.out, weight: d.weight.clone(), bias: d.bias.clone(), rows: d.rows}
}
