package nn

// ReLU is the rectified-linear activation max(0, x).
type ReLU struct {
	name string
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
