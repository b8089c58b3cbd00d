package nn

import "reramtest/internal/tensor"

// ReLU is the rectified-linear activation max(0, x).
type ReLU struct {
	name string
	mask []bool
}

// NewReLU builds a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (l *ReLU) Name() string { return l.name }

// Params returns nil: activations are parameter-free.
func (l *ReLU) Params() []*Param { return nil }

// OutputShape implements Layer: activations preserve shape.
func (l *ReLU) OutputShape(in []int) []int { return in }

// Clone returns an independent copy.
func (l *ReLU) Clone() Layer { return &ReLU{name: l.name} }

// Forward applies max(0, x) element-wise.
func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	od := out.Data()
	if cap(l.mask) < len(od) {
		l.mask = make([]bool, len(od))
	}
	l.mask = l.mask[:len(od)]
	for i, v := range od {
		if v > 0 {
			l.mask[i] = true
		} else {
			l.mask[i] = false
			od[i] = 0
		}
	}
	return out
}

// Backward gates the gradient by the forward activation mask.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	out := gradOut.Clone()
	od := out.Data()
	for i := range od {
		if !l.mask[i] {
			od[i] = 0
		}
	}
	return out
}
