//go:build !amd64

package tensor

// MatMulBlockedSlices computes exactly MatMulSlices's bits; off amd64 it is
// MatMulSlices (see matmul_amd64.go for the register-tiled kernels and the
// argument that they agree).
func MatMulBlockedSlices(dst, a, b []float64, m, k, n int) {
	MatMulSlices(dst, a, b, m, k, n)
}

// MatMulBlockedKernel names the kernel MatMulBlockedSlices runs: off amd64,
// the reference loop.
func MatMulBlockedKernel() string { return "generic" }
