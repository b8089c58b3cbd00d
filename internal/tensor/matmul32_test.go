package tensor

import (
	"math"
	"testing"

	"reramtest/internal/rng"
)

// randF32 fills an m-element f32 slice from the repo RNG in [-1, 1).
func randF32(r *rng.RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.Float64()*2 - 1)
	}
	return out
}

// widenF32 returns a widened f64 copy of a.
func widenF32(a []float32) []float64 {
	out := make([]float64, len(a))
	ConvertF32ToF64(out, a)
	return out
}

// transposeF32 returns the n×m transpose of the row-major m×n matrix a — the
// layout DenseForwardF32 takes its weights in.
func transposeF32(a []float32, m, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[j*m+i] = a[i*n+j]
		}
	}
	return out
}

// f64MatMulOf runs the f64 reference kernel over widened copies of the f32
// operands — the oracle every f32 kernel is gated against.
func f64MatMulOf(a, b []float32, m, k, n int) []float64 {
	dst := make([]float64, m*n)
	MatMulSlices(dst, widenF32(a), widenF32(b), m, k, n)
	return dst
}

// dotErrBound is the standard forward-error bound for a k-term float32
// accumulation: |computed − exact| ≤ c·(k+2)·eps32·Σ|aᵢbᵢ|, with c covering
// the lane reduction. Expressed against the f64 oracle the same bound holds
// (the oracle's own error is ~2⁻²⁹ of it).
func dotErrBound(a, b []float32, k int) float64 {
	s := 0.0
	for p := 0; p < k; p++ {
		s += math.Abs(float64(a[p]) * float64(b[p]))
	}
	return 4 * float64(k+2) * 0x1p-24 * s
}

func checkF32VsOracle(t *testing.T, name string, got []float32, a, b []float32, m, k, n int) {
	t.Helper()
	want := f64MatMulOf(a, b, m, k, n)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		bcol := make([]float32, k)
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				bcol[p] = b[p*n+j]
			}
			e := math.Abs(float64(got[i*n+j]) - want[i*n+j])
			if bound := dotErrBound(arow, bcol, k); e > bound {
				t.Fatalf("%s (%d,%d,%d) elem (%d,%d): err %g exceeds bound %g", name, m, k, n, i, j, e, bound)
			}
		}
	}
}

func TestMatMulF32KernelsAgainstF64Oracle(t *testing.T) {
	r := rng.New(21)
	for _, d := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 2, 9}, {16, 16, 16}, {5, 31, 2}, {4, 200, 6}} {
		m, k, n := d[0], d[1], d[2]
		a, b := randF32(r, m*k), randF32(r, k*n)
		dst := make([]float32, m*n)

		MatMulSlicesF32(dst, a, b, m, k, n)
		checkF32VsOracle(t, "MatMulSlicesF32", dst, a, b, m, k, n)

		// the dot-form dense kernel gets the same analytic bound (zero bias,
		// no ReLU: the bare x·wᵀ product)
		dense := make([]float32, m*n)
		DenseForwardF32(dense, a, transposeF32(b, k, n), make([]float32, n), m, k, n, 0, m, false)
		checkF32VsOracle(t, "DenseForwardF32", dense, a, b, m, k, n)
	}
}

func TestDenseForwardF32FusionIsBitExact(t *testing.T) {
	r := rng.New(25)
	m, k, n := 6, 19, 8
	x, wT, bias := randF32(r, m*k), randF32(r, n*k), randF32(r, n)
	// separate passes: matmul, then bias, then relu — all on rounded f32
	sep := make([]float32, m*n)
	for i := 0; i < m; i++ {
		denseRowsF32(sep[i*n:(i+1)*n], x[i*k:(i+1)*k], wT, k)
		for j := 0; j < n; j++ {
			sep[i*n+j] += bias[j]
		}
	}
	noRelu := append([]float32(nil), sep...)
	for i, v := range sep {
		if v < 0 {
			sep[i] = 0
		}
	}
	fused := make([]float32, m*n)
	DenseForwardF32(fused, x, wT, bias, m, k, n, 0, m, true)
	for i := range fused {
		if fused[i] != sep[i] {
			t.Fatalf("fused relu epilogue changed bits at elem %d", i)
		}
	}
	DenseForwardF32(fused, x, wT, bias, m, k, n, 0, m, false)
	for i := range fused {
		if fused[i] != noRelu[i] {
			t.Fatalf("fused bias epilogue changed bits at elem %d", i)
		}
	}
}

func TestIm2ColIntoF32MatchesF64(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := rng.New(27)
	srcLen := g.InC * g.InH * g.InW
	src := randF32(r, srcLen)
	outLen := g.InC * g.KH * g.KW * g.OutH() * g.OutW()
	got := make([]float32, outLen)
	Im2ColIntoF32(got, src, g)
	want := make([]float64, outLen)
	Im2ColInto(want, widenF32(src), g)
	for i := range got {
		if float64(got[i]) != want[i] {
			t.Fatalf("f32 im2col diverges from f64 window order at elem %d", i)
		}
	}
}

func TestMatMulF32MismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"slices": func() { MatMulSlicesF32(make([]float32, 4), make([]float32, 3), make([]float32, 4), 2, 2, 2) },
		"dense": func() {
			DenseForwardF32(make([]float32, 4), make([]float32, 4), make([]float32, 3), make([]float32, 2), 2, 2, 2, 0, 2, false)
		},
		"range": func() {
			DenseForwardF32(make([]float32, 4), make([]float32, 4), make([]float32, 4), make([]float32, 2), 2, 2, 2, 1, 3, false)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: shape mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}
