package tensor

import (
	"fmt"
	"sync/atomic"
)

// matmulRows4 computes four whole rows of dst = a·b (dst 4×n, a 4×k, b k×n,
// n >= 4) in 4×4 register tiles and reports whether any element it wrote is
// ±Inf or NaN. Implemented in matmul_amd64.s.
//
//go:noescape
func matmulRows4(dst, a, b []float64, k, n int) (nonFinite bool)

// blockedFallbacks counts the row blocks MatMulBlockedSlices has handed back
// to the reference loop, so tests can assert that a fault map stays on the
// tile path.
var blockedFallbacks atomic.Uint64

// MatMulBlockedSlices computes exactly MatMulSlices's bits — dst = a·b with a
// m×k, b k×n, dst m×n, each element starting at +0 and folding a[i,p]·b[p,j]
// for p ascending — four rows at a time through the SSE2 register tile in
// matmul_amd64.s. It is the f64 convolution kernel of the inference engine
// (a is the layer's weight matrix, b one sample's im2col panel).
//
// The tile multiplies every term; MatMulSlices skips those whose a[i,p] is
// zero. The two agree whenever every skipped product is ±0: an accumulator
// that starts at +0 is never −0 under round-to-nearest (x + y is −0 only
// when both are), so adding ±0 to it is the identity. They differ only where
// a zero a[i,p] — a stuck-at-0 cell — faces a non-finite b[p,j], and there
// the tile's 0·Inf leaves a NaN in that output element. So a row block whose
// tile output holds any non-finite value (the kernel tests its accumulators
// as it stores them) is recomputed by MatMulSlices, which also settles NaN
// payloads and overflow the reference's way; a block of finite outputs had
// only finite, order-independent terms and is already the reference's bits.
//
// Rows past the last whole block are covered by one more block ending at row
// m, which recomputes up to three rows to the same bits. Products with fewer
// than four rows or columns go to MatMulSlices.
func MatMulBlockedSlices(dst, a, b []float64, m, k, n int) {
	if m < 4 || n < 4 {
		MatMulSlices(dst, a, b, m, k, n)
		return
	}
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulBlockedSlices length mismatch dst=%d a=%d b=%d for (%d×%d)·(%d×%d)",
			len(dst), len(a), len(b), m, k, k, n))
	}
	for i := 0; i < m; i += 4 {
		i := min(i, m-4)
		d4, a4 := dst[i*n:(i+4)*n], a[i*k:(i+4)*k]
		if matmulRows4(d4, a4, b, k, n) {
			blockedFallbacks.Add(1)
			MatMulSlices(d4, a4, b, 4, k, n)
		}
	}
}
