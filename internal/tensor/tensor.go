// Package tensor implements the dense numeric arrays that every other layer
// of the reproduction is built on: the neural-network layers, the ReRAM
// crossbar simulator, the fault injectors and the test-pattern generators all
// operate on tensor.Tensor values.
//
// Tensors are row-major float64 arrays with an explicit shape. The package
// deliberately keeps the surface small and allocation behaviour predictable:
// hot paths (matmul, im2col) take destination buffers so the training loop
// can reuse memory.
package tensor

import (
	"fmt"
	"math"

	"reramtest/internal/rng"
)

// Tensor is a dense, row-major, float64 n-dimensional array.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape. A zero-dimensional
// tensor (no axes) holds a single scalar.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(shapeMismatch(len(data), append([]int(nil), shape...), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// shapeMismatch words FromSlice's panic. It is handed a copy of the shape and
// kept out of line: formatting with %v makes its argument escape, and inlined
// that would put every caller's variadic shape on the heap.
//
//go:noinline
func shapeMismatch(length int, shape []int, volume int) string {
	return fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", length, shape, volume)
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn returns a tensor filled with Gaussian samples drawn from r.
func Randn(r *rng.RNG, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	r.FillNormal(t.data, mean, std)
	return t
}

// RandUniform returns a tensor filled with uniform samples in [lo, hi).
func RandUniform(r *rng.RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	r.FillUniform(t.data, lo, hi)
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates the
// tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom volume mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view sharing t's data with a new shape of equal volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (volume %d) to %v (volume %d)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// ResliceRows re-points t, a rank-2 (·, w) view, at the first n rows of buf
// in place, without allocating: a batch engine keeps one view per workspace
// and resizes it when the batch size changes. Whoever still holds t sees the
// new extent. buf must hold at least n rows.
func (t *Tensor) ResliceRows(buf []float64, n int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ResliceRows on a rank-%d tensor", len(t.shape)))
	}
	t.data = buf[:n*t.shape[1]]
	t.shape[0] = n
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// ClampInPlace limits every element to [lo, hi].
func (t *Tensor) ClampInPlace(lo, hi float64) *Tensor {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	if len(t.data) == 0 {
		return 0
	}
	m := t.Mean()
	s := 0.0
	for _, v := range t.data {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(t.data)))
}

// Min returns the smallest element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the linear index of the largest element (first on ties).
func (t *Tensor) ArgMax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Equal reports whether t and o have identical shapes and elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if !sameShape(t.shape, o.shape) {
		return false
	}
	for i, v := range t.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
