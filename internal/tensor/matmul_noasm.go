//go:build !amd64

package tensor

// MatMulBlockedSlices computes exactly MatMulSlices's bits; off amd64 it is
// MatMulSlices (see matmul_amd64.go for the register-tiled kernel and the
// argument that the two agree).
func MatMulBlockedSlices(dst, a, b []float64, m, k, n int) {
	MatMulSlices(dst, a, b, m, k, n)
}
