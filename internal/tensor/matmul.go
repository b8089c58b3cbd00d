package tensor

import (
	"fmt"
	"math"
)

// MatMul computes the matrix product a·b for rank-2 tensors and returns a new
// (m×n) tensor. It panics if the inner dimensions disagree.
func MatMul(a, b *Tensor) *Tensor {
	m, k := mustMatrix("MatMul lhs", a)
	k2, n := mustMatrix("MatMul rhs", b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	MatMulSlices(out.data, a.data, b.data, m, k, n)
	return out
}

// MatMulSlices is the raw matmul kernel over bare slices: dst = a·b where a
// is m×k, b is k×n and dst is m×n, all row-major. It exists so workspace-
// reusing callers can multiply into sub-regions of preallocated buffers
// without building tensor headers. The kernel iterates in (i, k, j) order so
// the inner loop walks both b and dst contiguously.
//
// There are two f64 forward a·b kernels with this one per-element fold.
// MatMulSlices is the reference loop: every tensor-level matmul (MatMul,
// ParallelMatMul) lands here, and the golden-equivalence suites compare
// against it. The blocked products (MatMulBlockedSlices for Dense, a the
// sample rows and b the weight matrix; ConvPlan for Conv2D, a the weight
// matrix and b one sample's im2col panel read in place) are the
// register-tiled kernel both engines' forward passes run; off amd64 they are
// this loop reading b through a row-offset table.
func MatMulSlices(dst, a, b []float64, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulSlices length mismatch dst=%d a=%d b=%d for (%d×%d)·(%d×%d)",
			len(dst), len(a), len(b), m, k, k, n))
	}
	for i := 0; i < m; i++ {
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// ReLUBits returns the bit pattern of ReLU's v > 0 ? v : +0 without a
// data-dependent branch (the conditional move costs the same on every input;
// the compare-and-branch it replaces mispredicts on half of a layer's
// activations). Subtracting one wraps +0 to the top of the unsigned range, so
// a single comparison sends −x, ±0 and every NaN to +0 and keeps (0, +Inf].
// It is the one scalar ReLU: the standalone ReLU kernel, the blocked
// kernels' fallback epilogue and their portable twin all apply it.
func ReLUBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b-1 >= 0x7FF0000000000000 {
		b = 0
	}
	return b
}

// MatMulTransBSlices is the raw dst = a·bᵀ kernel over bare slices: a is m×k,
// b is n×k and dst is m×n, all row-major. Each dst element is accumulated in
// a register over p in increasing order, so the result is independent of how
// callers partition the output — the train engine's per-sample backward
// kernels (conv dW, dense dx) multiply into shard rows of preallocated
// workspaces through this single kernel, which is what keeps serial and
// pooled training plans bit-identical.
func MatMulTransBSlices(dst, a, b []float64, m, k, n int) {
	if len(a) != m*k || len(b) != n*k || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulTransBSlices length mismatch dst=%d a=%d b=%d for (%d×%d)·(%d×%d)ᵀ",
			len(dst), len(a), len(b), m, k, n, k))
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			drow[j] = s
		}
	}
}

// MatMulNoSkipSlices computes dst = a·b (a m×k, b k×n, dst m×n, row-major)
// with every element's terms summed over p ascending and NO zero-skip — the
// exact per-element addition chain of a MatMulTransBSlices call against bᵀ,
// which folds each term into a register dot product. Accumulating in the dst
// row instead pipelines across the n independent elements rather than
// serializing on floating-point add latency, so callers that can afford a
// transposed operand (the train engine's dL/dx kernels) get the same bits
// several times faster.
func MatMulNoSkipSlices(dst, a, b []float64, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulNoSkipSlices length mismatch dst=%d a=%d b=%d for (%d×%d)·(%d×%d)",
			len(dst), len(a), len(b), m, k, k, n))
	}
	for i := 0; i < m; i++ {
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulTransASlices is the raw dst = aᵀ·b kernel over bare slices: a is k×m,
// b is k×n and dst is m×n, all row-major. dst is zeroed first and accumulated
// over p in increasing order, skipping zero a elements, so per-sample calls
// (k = 1) compose into exactly the batch-level accumulation when folded in
// sample order.
func MatMulTransASlices(dst, a, b []float64, k, m, n int) {
	if len(a) != k*m || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulTransASlices length mismatch dst=%d a=%d b=%d for (%d×%d)ᵀ·(%d×%d)",
			len(dst), len(a), len(b), k, m, k, n))
	}
	for i := range dst {
		dst[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	m, n := mustMatrix("Transpose2D", a)
	out := New(n, m)
	Transpose2DInto(out, a)
	return out
}

// Transpose2DInto writes aᵀ into dst, reusing dst's storage. a is m×n and dst
// must be n×m.
func Transpose2DInto(dst, a *Tensor) {
	m, n := mustMatrix("Transpose2DInto src", a)
	AssertDims("Transpose2DInto dst", dst, n, m)
	ad, dd := a.data, dst.data
	for i := 0; i < m; i++ {
		row := ad[i*n : (i+1)*n]
		for j, v := range row {
			dd[j*m+i] = v
		}
	}
}

func mustMatrix(op string, t *Tensor) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires a rank-2 tensor, got shape %v", op, t.shape))
	}
	return t.shape[0], t.shape[1]
}
