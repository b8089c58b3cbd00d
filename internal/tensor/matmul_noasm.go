//go:build !amd64

package tensor

// MatMulBlockedSlices computes exactly MatMulSlices's bits; off amd64 it is
// MatMulSlices (see matmul_amd64.go for the register-tiled kernels and the
// argument that they agree).
func MatMulBlockedSlices(dst, a, b []float64, m, k, n int) {
	MatMulSlices(dst, a, b, m, k, n)
}

// MatMulBlockedBiasReLU computes dst = ReLU(a·b + bias) with one bias per row
// of dst; off amd64 it is MatMulSlices followed by the scalar epilogue.
func MatMulBlockedBiasReLU(dst, a, b, bias []float64, m, k, n int) {
	checkBias(bias, m)
	MatMulSlices(dst, a, b, m, k, n)
	biasReLURows(dst, bias, n)
}

// MatMulBlockedKernel names the kernel the blocked matmuls run: off amd64,
// the reference loop.
func MatMulBlockedKernel() string { return "generic" }

// reluMaxPool2x2: off amd64 the 2×2 pool is its Go twin.
func reluMaxPool2x2(out, panel []float64, planes, inH, inW int) {
	ReLUMaxPool2x2Generic(out, panel, planes, inH, inW)
}
