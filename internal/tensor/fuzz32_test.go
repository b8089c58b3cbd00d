package tensor

import (
	"math"
	"testing"

	"reramtest/internal/rng"
)

// FuzzMatMulF32VsF64 drives the two f32 matmul kernels — saxpy-form
// MatMulSlicesF32 and the dot-form kernel under DenseForwardF32 — with
// fuzzer-chosen shapes and seeds and gates every output element against the
// f64 reference through the standard forward-error bound
// c·(k+2)·eps32·Σ|aᵢbᵢ| — the same contract the engine-level ULP gate is
// derived from. It also pins that the fused dense epilogue changes no bits
// versus separate passes.
//
// Seeds cover degenerate shapes (1×1×1), unroll remainders (k, n ≢ 0 mod 4)
// and a scale spread that exercises rounding.
func FuzzMatMulF32VsF64(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(1), false)
	f.Add(int64(2), uint8(3), uint8(4), uint8(5), false)
	f.Add(int64(3), uint8(7), uint8(2), uint8(9), true)
	f.Add(int64(4), uint8(16), uint8(16), uint8(16), false)
	f.Add(int64(5), uint8(5), uint8(31), uint8(2), true)
	f.Add(int64(6), uint8(2), uint8(255), uint8(3), false)
	f.Add(int64(7), uint8(9), uint8(13), uint8(21), true)
	f.Fuzz(func(t *testing.T, seed int64, mb, kb, nb uint8, spread bool) {
		m := int(mb)%24 + 1
		k := int(kb) + 1
		n := int(nb)%24 + 1
		r := rng.New(seed)
		a, b := make([]float32, m*k), make([]float32, k*n)
		fill := func(dst []float32) {
			for i := range dst {
				v := r.Float64()*2 - 1
				if spread {
					// push exponents apart so rounding differences surface
					v *= math.Pow(2, float64(r.Intn(17)-8))
				}
				// sprinkle exact zeros: the saxpy kernels skip them
				if r.Intn(8) == 0 {
					v = 0
				}
				dst[i] = float32(v)
			}
		}
		fill(a)
		fill(b)

		got := make([]float32, m*n)
		MatMulSlicesF32(got, a, b, m, k, n)

		// f64 oracle over widened operands
		want := make([]float64, m*n)
		MatMulSlices(want, widenF32(a), widenF32(b), m, k, n)

		// dot-form product: the dense kernel's inner loop, one row at a time
		bT := transposeF32(b, k, n)
		dot := make([]float32, m*n)
		for i := 0; i < m; i++ {
			denseRowsF32(dot[i*n:(i+1)*n], a[i*k:(i+1)*k], bT, k)
		}

		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var mag float64
				for p := 0; p < k; p++ {
					mag += math.Abs(float64(a[i*k+p]) * float64(b[p*n+j]))
				}
				bound := 4 * float64(k+2) * 0x1p-24 * mag
				if e := math.Abs(float64(got[i*n+j]) - want[i*n+j]); e > bound {
					t.Fatalf("saxpy (%d,%d,%d) elem (%d,%d): |f32−f64| = %g exceeds bound %g", m, k, n, i, j, e, bound)
				}
				if e := math.Abs(float64(dot[i*n+j]) - want[i*n+j]); e > bound {
					t.Fatalf("dot (%d,%d,%d) elem (%d,%d): |f32−f64| = %g exceeds bound %g", m, k, n, i, j, e, bound)
				}
			}
		}

		// fused dense epilogue: bias+relu on the rounded sum changes no bits
		bias := make([]float32, n)
		for j := range bias {
			bias[j] = float32(r.Float64() - 0.5)
		}
		fused := make([]float32, m*n)
		DenseForwardF32(fused, a, bT, bias, m, k, n, 0, m, true)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				v := dot[i*n+j] + bias[j]
				if v < 0 {
					v = 0
				}
				if fused[i*n+j] != v {
					t.Fatalf("fused epilogue changed bits at (%d,%d)", i, j)
				}
			}
		}
	})
}
