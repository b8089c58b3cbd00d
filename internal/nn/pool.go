package nn

import "reramtest/internal/tensor"

// MaxPool2D downsamples each channel by taking the maximum over
// non-overlapping (or strided) windows.
type MaxPool2D struct {
	name string
	geom tensor.ConvGeom // KH/KW are the window, InC channels pooled independently
}

// NewMaxPool2D builds a max-pooling layer. geom.InC/InH/InW describe the
// incoming feature map; geom.KH/KW and strides describe the window.
func NewMaxPool2D(name string, geom tensor.ConvGeom) *MaxPool2D {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	return &MaxPool2D{name: name, geom: geom}
}

// Name returns the layer name.
func (p *MaxPool2D) Name() string { return p.name }

// Geom returns the pooling geometry.
func (p *MaxPool2D) Geom() tensor.ConvGeom { return p.geom }

// Params returns nil: pooling has no trainable parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// OutputShape implements Layer.
func (p *MaxPool2D) OutputShape([]int) []int {
	return []int{p.geom.InC, p.geom.OutH(), p.geom.OutW()}
}

// Clone returns an independent copy.
func (p *MaxPool2D) Clone() Layer {
	return &MaxPool2D{name: p.name, geom: p.geom}
}

// AvgPool2D downsamples each channel by averaging over windows.
type AvgPool2D struct {
	name string
	geom tensor.ConvGeom
}

// NewAvgPool2D builds an average-pooling layer with the same geometry
// conventions as NewMaxPool2D.
func NewAvgPool2D(name string, geom tensor.ConvGeom) *AvgPool2D {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	return &AvgPool2D{name: name, geom: geom}
}

// Name returns the layer name.
func (p *AvgPool2D) Name() string { return p.name }

// Geom returns the pooling geometry.
func (p *AvgPool2D) Geom() tensor.ConvGeom { return p.geom }

// Params returns nil: pooling has no trainable parameters.
func (p *AvgPool2D) Params() []*Param { return nil }

// OutputShape implements Layer.
func (p *AvgPool2D) OutputShape([]int) []int {
	return []int{p.geom.InC, p.geom.OutH(), p.geom.OutW()}
}

// Clone returns an independent copy.
func (p *AvgPool2D) Clone() Layer { return &AvgPool2D{name: p.name, geom: p.geom} }
