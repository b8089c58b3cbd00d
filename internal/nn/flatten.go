package nn

// Flatten reshapes (N, C, H, W)-style batches to (N, D). Because layers in
// this package already carry batches as (N, volume), Flatten is a shape
// bookkeeping no-op that exists to make model definitions read like their
// paper counterparts.
type Flatten struct {
	name string
}

// NewFlatten builds a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name returns the layer name.
func (l *Flatten) Name() string { return l.name }

// Params returns nil.
func (l *Flatten) Params() []*Param { return nil }

// OutputShape collapses the per-sample shape to one axis.
func (l *Flatten) OutputShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Clone returns an independent copy.
func (l *Flatten) Clone() Layer { return &Flatten{name: l.name} }
