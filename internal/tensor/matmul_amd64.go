package tensor

// matmulRows4 computes four rows of dst = a·B in 4×4 SSE2 register tiles:
// a is 4×k with k = len(off), row p of B is read from b at off[p], row i of
// dst starts at dst[i·ldd], n >= 4, and each tile's upper two columns read B
// hi and store dst dhi elements past its lower two (both 2 for contiguous
// columns). It stores max(acc + bias[i], +0) when bias holds the four rows'
// biases, the raw product when it is empty, and reports whether any
// accumulator, before the bias, is ±Inf or NaN. Implemented in
// matmul_amd64.s.
//
//go:noescape
func matmulRows4(dst, a, b, bias []float64, off []int, n, ldd, hi, dhi int) (nonFinite bool)

// matmulRows4AVX2 is matmulRows4 in 4×8 AVX2 register tiles (halves of
// four columns), for n >= 8 on a host where probeTile found AVX2. Same bits: VEX multiplies, adds and maxima
// are lane-wise IEEE operations like their SSE2 forms.
//
//go:noescape
func matmulRows4AVX2(dst, a, b, bias []float64, off []int, n, ldd, hi, dhi int) (nonFinite bool)

// matmulRows4AVX512 is matmulRows4 in 4×16 AVX-512 register tiles (halves
// of eight columns), for n >= 16 on a host where probeTile found AVX-512F.
// Same bits again.
//
//go:noescape
func matmulRows4AVX512(dst, a, b, bias []float64, off []int, n, ldd, hi, dhi int) (nonFinite bool)

// reluMaxPool2x2 is ReLUMaxPool2x2's SSE2 kernel, in pool_amd64.s.
//
//go:noescape
func reluMaxPool2x2(out, panel []float64, planes, inH, inW int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

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

// tileRows4 runs one 4-row block on register tile t (the block and tile
// contract of matmulRows4) and reports a non-finite accumulator.
func tileRows4(t tile, dst, a, b, bias []float64, off []int, n, ldd, hi, dhi int) bool {
	switch t {
	case tileAVX512:
		return matmulRows4AVX512(dst, a, b, bias, off, n, ldd, hi, dhi)
	case tileAVX2:
		return matmulRows4AVX2(dst, a, b, bias, off, n, ldd, hi, dhi)
	default:
		return matmulRows4(dst, a, b, bias, off, n, ldd, hi, dhi)
	}
}
