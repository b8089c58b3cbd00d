package nn

import (
	"fmt"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// Conv2D is a 2-D convolution over (C, H, W) feature maps, defined as
// im2col + matmul. The kernel is stored as a (OutC, InC*KH*KW) matrix — the
// same flattened layout the ReRAM crossbar mapper consumes, so a trained
// layer maps onto crossbar tiles without reshuffling.
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	outC   int
	weight *Param           // (OutC, InC*KH*KW)
	bias   *Param           // (OutC)
	plan   *tensor.ConvPlan // the forward pass's row-offset table, fixed by geom
}

// NewConv2D builds a convolution layer with He-initialised weights.
func NewConv2D(name string, r *rng.RNG, geom tensor.ConvGeom, outC int) *Conv2D {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if outC <= 0 {
		panic(fmt.Sprintf("nn: Conv2D %q needs positive output channels, got %d", name, outC))
	}
	fanIn := geom.InC * geom.KH * geom.KW
	w := heInit(r, fanIn, outC, fanIn)
	return &Conv2D{
		name:   name,
		geom:   geom,
		outC:   outC,
		weight: newParam(name+".weight", w),
		bias:   newParam(name+".bias", tensor.New(outC)),
		plan:   tensor.NewConvPlan(geom, outC),
	}
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.name }

// Geom returns the convolution geometry.
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// OutC returns the number of output channels.
func (c *Conv2D) OutC() int { return c.outC }

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// OutputShape implements Layer.
func (c *Conv2D) OutputShape([]int) []int {
	return []int{c.outC, c.geom.OutH(), c.geom.OutW()}
}

// Clone deep-copies the layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		name:   c.name,
		geom:   c.geom,
		outC:   c.outC,
		weight: c.weight.clone(),
		bias:   c.bias.clone(),
		plan:   c.plan,
	}
}

func (c *Conv2D) sampleVolume() int { return c.geom.InC * c.geom.InH * c.geom.InW }
