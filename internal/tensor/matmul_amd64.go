package tensor

import (
	"fmt"
	"sync/atomic"
)

// matmulRows4 computes four whole rows of dst = a·b (dst 4×n, a 4×k, b k×n,
// n >= 4) in 4×4 SSE2 register tiles — storing max(acc + bias[i], +0) when
// bias holds the four rows' biases, the raw product when it is empty — and
// reports whether any accumulator, before the bias, is ±Inf or NaN.
// Implemented in matmul_amd64.s.
//
//go:noescape
func matmulRows4(dst, a, b, bias []float64, k, n int) (nonFinite bool)

// matmulRows4AVX2 is matmulRows4 in 4×8 AVX2 register tiles, for n >= 8 on a
// host where probeTile found AVX2. Same bits: VEX multiplies, adds and maxima
// are lane-wise IEEE operations like their SSE2 forms.
//
//go:noescape
func matmulRows4AVX2(dst, a, b, bias []float64, k, n int) (nonFinite bool)

// matmulRows4AVX512 is matmulRows4 in 4×16 AVX-512 register tiles, for
// n >= 16 on a host where probeTile found AVX-512F. Same bits again.
//
//go:noescape
func matmulRows4AVX512(dst, a, b, bias []float64, k, n int) (nonFinite bool)

// reluMaxPool2x2 is ReLUMaxPool2x2's SSE2 kernel, in pool_amd64.s.
//
//go:noescape
func reluMaxPool2x2(out, panel []float64, planes, inH, inW int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

// tile names one register tile behind the blocked kernels.
type tile uint8

const (
	tileSSE2 tile = iota
	tileAVX2
	tileAVX512
)

// hostTile is the widest tile this host runs, chosen once for the process
// from what the host is.
var hostTile = probeTile()

// probeTile finds the widest tile the CPU and the OS support. The AVX2 tile
// needs AVX and AVX2 and an OS that saves the YMM state across context
// switches (OSXSAVE set, XCR0 enabling the SSE and AVX halves); the AVX-512
// tile needs that, AVX-512F, and XCR0 also enabling the opmask and both ZMM
// halves.
func probeTile() tile {
	const osxsave, avx = 1 << 27, 1 << 28         // CPUID.1:ECX
	const avx2, avx512f = 1 << 5, 1 << 16         // CPUID.7.0:EBX
	const ymmState, zmmState = 0b110, 0b1110_0110 // XCR0
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return tileSSE2
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return tileSSE2 // and XGETBV would fault
	}
	xcr0 := xgetbv0()
	_, b, _, _ := cpuid(7, 0)
	switch {
	case xcr0&zmmState == zmmState && b&(avx2|avx512f) == avx2|avx512f:
		return tileAVX512
	case xcr0&ymmState == ymmState && b&avx2 != 0:
		return tileAVX2
	}
	return tileSSE2
}

// MatMulBlockedKernel names the widest register tile the blocked kernels run
// on this host — "avx512", "avx2", "sse2", or off amd64 "generic" — so a
// performance record can state the kernel that produced it.
func MatMulBlockedKernel() string {
	return [...]string{"sse2", "avx2", "avx512"}[hostTile]
}

// blockedFallbacks counts the row blocks the blocked kernels have handed back
// to the reference loop, so tests can assert that a fault map stays on the
// tile path.
var blockedFallbacks atomic.Uint64

// MatMulBlockedSlices computes exactly MatMulSlices's bits — dst = a·b with a
// m×k, b k×n, dst m×n, each element starting at +0 and folding a[i,p]·b[p,j]
// for p ascending — four rows at a time through a register tile in
// matmul_amd64.s: 4×16 AVX-512, 4×8 AVX2 or 4×4 SSE2, the widest the host
// runs and the product is wide enough for (16, 8 and 4 columns). It is the
// f64 convolution and dense kernel of both engines' forward passes: for a
// convolution a is the layer's weight matrix and b one sample's im2col panel,
// for a dense layer a is the sample rows and b the weight matrix.
//
// The tile multiplies every term; MatMulSlices skips those whose a[i,p] is
// zero. The two agree whenever every skipped product is ±0: an accumulator
// that starts at +0 is never −0 under round-to-nearest (x + y is −0 only
// when both are), so adding ±0 to it is the identity. They differ only where
// a zero a[i,p] — a stuck-at-0 conv weight, a zero activation entering a
// dense layer — faces a non-finite b[p,j], and there the tile's 0·Inf leaves
// a NaN in that output element. So a row block whose accumulators hold any
// non-finite value (the kernel tests them before it stores) is recomputed by
// MatMulSlices, which also settles NaN payloads and overflow the reference's
// way; a block of finite accumulators had only finite, order-independent
// terms and is already the reference's bits.
//
// Rows past the last whole block are covered by one more block ending at row
// m, which recomputes up to three rows to the same bits. Products with fewer
// than four rows or columns go to MatMulSlices.
func MatMulBlockedSlices(dst, a, b []float64, m, k, n int) {
	matMulBlocked(hostTile, dst, a, b, nil, m, k, n)
}

// MatMulBlockedBiasReLU computes dst = ReLU(a·b + bias), bias holding one
// entry per row of dst: element (i, j) is ReLUBits(MatMulSlices's (i, j) +
// bias[i]), bit for bit. The tile applies the bias and the ReLU as it stores
// (see matmul_amd64.s for why its MAXPD is ReLUBits's rule); a row block that
// falls back to MatMulSlices gets the scalar epilogue. It is the fused conv →
// ReLU step of the inference engine.
func MatMulBlockedBiasReLU(dst, a, b, bias []float64, m, k, n int) {
	checkBias(bias, m)
	matMulBlocked(hostTile, dst, a, b, bias, m, k, n)
}

// matMulBlocked is the blocked kernels on a named widest tile, so tests can
// hold every tile the host supports to the reference, not only the selected
// one; bias == nil stores the raw product.
func matMulBlocked(t tile, dst, a, b, bias []float64, m, k, n int) {
	if m < 4 || n < 4 {
		MatMulSlices(dst, a, b, m, k, n)
		biasReLURows(dst, bias, n)
		return
	}
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulBlockedSlices length mismatch dst=%d a=%d b=%d for (%d×%d)·(%d×%d)",
			len(dst), len(a), len(b), m, k, k, n))
	}
	if t == tileAVX512 && n < 16 {
		t = tileAVX2
	}
	if t == tileAVX2 && n < 8 {
		t = tileSSE2
	}
	for i := 0; i < m; i += 4 {
		i := min(i, m-4)
		d4, a4 := dst[i*n:(i+4)*n], a[i*k:(i+4)*k]
		var b4 []float64
		if bias != nil {
			b4 = bias[i : i+4]
		}
		var nonFinite bool
		switch t {
		case tileAVX512:
			nonFinite = matmulRows4AVX512(d4, a4, b, b4, k, n)
		case tileAVX2:
			nonFinite = matmulRows4AVX2(d4, a4, b, b4, k, n)
		default:
			nonFinite = matmulRows4(d4, a4, b, b4, k, n)
		}
		if nonFinite {
			blockedFallbacks.Add(1)
			MatMulSlices(d4, a4, b, 4, k, n)
			biasReLURows(d4, b4, n)
		}
	}
}
