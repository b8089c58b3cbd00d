//go:build !amd64

package tensor

// blockedTiles: off amd64 the blocked kernels are one portable kernel.
var blockedTiles = []blockedTile{{"generic", true, func(dst, a, b, bias []float64, m, k, n int) {
	if bias == nil {
		MatMulBlockedSlices(dst, a, b, m, k, n)
		return
	}
	MatMulBlockedBiasReLU(dst, a, b, bias, m, k, n)
}}}
