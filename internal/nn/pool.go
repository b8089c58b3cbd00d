package nn

import (
	"fmt"

	"reramtest/internal/tensor"
)

// MaxPool2D downsamples each channel by taking the maximum over
// non-overlapping (or strided) windows. The winning index of every window is
// cached during Forward so Backward can route the gradient to it.
type MaxPool2D struct {
	name   string
	geom   tensor.ConvGeom // KH/KW are the window, InC channels pooled independently
	argmax []int           // per batch: winning flat input index per output element
	lastN  int
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

// Forward pools a (N, C*H*W) batch into (N, C*OutH*OutW).
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	g := p.geom
	n := x.Dim(0)
	inVol := g.InC * g.InH * g.InW
	if x.Len() != n*inVol {
		panic(fmt.Sprintf("nn: %s forward input %v does not match geometry %+v", p.name, x.Shape(), g))
	}
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	out := tensor.New(n, outVol)
	if cap(p.argmax) < n*outVol {
		p.argmax = make([]int, n*outVol)
	}
	p.argmax = p.argmax[:n*outVol]
	p.lastN = n
	xd, od := x.Data(), out.Data()
	for s := 0; s < n; s++ {
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
					p.argmax[oBase+oi] = best
					oi++
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to the input element that won its
// window.
func (p *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outVol := g.InC * g.OutH() * g.OutW()
	if gradOut.Len() != p.lastN*outVol {
		panic(fmt.Sprintf("nn: %s Backward grad %v does not match output", p.name, gradOut.Shape()))
	}
	gradIn := tensor.New(p.lastN, inVol)
	gd, gid := gradOut.Data(), gradIn.Data()
	for i, v := range gd {
		if idx := p.argmax[i]; idx >= 0 {
			gid[idx] += v
		}
	}
	return gradIn
}

// AvgPool2D downsamples each channel by averaging over windows.
type AvgPool2D struct {
	name  string
	geom  tensor.ConvGeom
	lastN int
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

// Forward pools a (N, C*H*W) batch into (N, C*OutH*OutW) by window means.
func (p *AvgPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	g := p.geom
	n := x.Dim(0)
	inVol := g.InC * g.InH * g.InW
	if x.Len() != n*inVol {
		panic(fmt.Sprintf("nn: %s forward input %v does not match geometry %+v", p.name, x.Shape(), g))
	}
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	out := tensor.New(n, outVol)
	p.lastN = n
	xd, od := x.Data(), out.Data()
	winSize := float64(g.KH * g.KW)
	for s := 0; s < n; s++ {
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
	return out
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := p.geom
	inVol := g.InC * g.InH * g.InW
	outH, outW := g.OutH(), g.OutW()
	outVol := g.InC * outH * outW
	if gradOut.Len() != p.lastN*outVol {
		panic(fmt.Sprintf("nn: %s Backward grad %v does not match output", p.name, gradOut.Shape()))
	}
	gradIn := tensor.New(p.lastN, inVol)
	gd, gid := gradOut.Data(), gradIn.Data()
	winSize := float64(g.KH * g.KW)
	for s := 0; s < p.lastN; s++ {
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
	return gradIn
}
