package tensor

import (
	"fmt"
	"sync/atomic"
)

// matmulRows4 computes four whole rows of dst = a·b (dst 4×n, a 4×k, b k×n,
// n >= 4) in 4×4 SSE2 register tiles and reports whether any element it wrote
// is ±Inf or NaN. Implemented in matmul_amd64.s.
//
//go:noescape
func matmulRows4(dst, a, b []float64, k, n int) (nonFinite bool)

// matmulRows4AVX2 is matmulRows4 in 4×8 AVX2 register tiles, for n >= 8 on a
// host that passed hasAVX2. Same bits: VEX multiplies and adds are lane-wise
// IEEE operations like their SSE2 forms.
//
//go:noescape
func matmulRows4AVX2(dst, a, b []float64, k, n int) (nonFinite bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

// hasAVX2 reports whether the 256-bit tile may run: the CPU has AVX and AVX2,
// and the OS saves the YMM state across context switches (OSXSAVE set and
// XCR0 enabling both the SSE and the AVX halves).
func hasAVX2() bool {
	const osxsave, avx, avx2, xmmYmm = 1 << 27, 1 << 28, 1 << 5, 0b110
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// useAVX2 selects the tile for the process, once, from what the host is.
var useAVX2 = hasAVX2()

// MatMulBlockedKernel names the register tile MatMulBlockedSlices runs on
// this host — "avx2", "sse2", or off amd64 "generic" — so a performance
// record can state the kernel that produced it.
func MatMulBlockedKernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "sse2"
}

// blockedFallbacks counts the row blocks MatMulBlockedSlices has handed back
// to the reference loop, so tests can assert that a fault map stays on the
// tile path.
var blockedFallbacks atomic.Uint64

// MatMulBlockedSlices computes exactly MatMulSlices's bits — dst = a·b with a
// m×k, b k×n, dst m×n, each element starting at +0 and folding a[i,p]·b[p,j]
// for p ascending — four rows at a time through a register tile in
// matmul_amd64.s: 4×8 AVX2 where the host has it, 4×4 SSE2 otherwise and for
// products narrower than eight columns. It is the f64 convolution kernel of
// the inference engine (a is the layer's weight matrix, b one sample's im2col
// panel).
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
	matMulBlocked(useAVX2, dst, a, b, m, k, n)
}

// matMulBlocked is MatMulBlockedSlices on a named tile, so tests can hold
// every tile the host supports to the reference, not only the selected one.
func matMulBlocked(avx2 bool, dst, a, b []float64, m, k, n int) {
	if m < 4 || n < 4 {
		MatMulSlices(dst, a, b, m, k, n)
		return
	}
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulBlockedSlices length mismatch dst=%d a=%d b=%d for (%d×%d)·(%d×%d)",
			len(dst), len(a), len(b), m, k, k, n))
	}
	avx2 = avx2 && n >= 8
	for i := 0; i < m; i += 4 {
		i := min(i, m-4)
		d4, a4 := dst[i*n:(i+4)*n], a[i*k:(i+4)*k]
		var nonFinite bool
		if avx2 {
			nonFinite = matmulRows4AVX2(d4, a4, b, k, n)
		} else {
			nonFinite = matmulRows4(d4, a4, b, k, n)
		}
		if nonFinite {
			blockedFallbacks.Add(1)
			MatMulSlices(d4, a4, b, 4, k, n)
		}
	}
}
