package tensor

import (
	"math"
	"testing"

	"reramtest/internal/rng"
)

// sa0Product builds an (m×k)·(k×n) product shaped like a conv layer of a
// stuck-at-0 device: weights a in [-1, 1) with a tenth forced to exact zero,
// activations b in [0, 1).
func sa0Product(m, k, n int) (a, b []float64) {
	r := rng.New(int64(m + k + n))
	a = RandUniform(r, -1, 1, m*k).Data()
	for i := range a {
		if r.Intn(10) == 0 {
			a[i] = 0
		}
	}
	return a, RandUniform(r, 0, 1, k*n).Data()
}

// convProductShapes are the six (outC × ckk)·(ckk × spatial) products of
// LeNet-5 and ConvNet-7, the shapes the engine sends.
var convProductShapes = [][3]int{{6, 25, 784}, {16, 150, 100}, {12, 27, 1024}, {24, 108, 256}, {32, 216, 64}, {32, 288, 64}}

// blockedTiles are amd64's two register tiles, each reached through the
// wrapper MatMulBlockedSlices is: the tests below hold both to the reference
// on an AVX2 host, where production only ever selects the wider one.
var blockedTiles = []blockedTile{
	{"sse2", true, func(dst, a, b []float64, m, k, n int) { matMulBlocked(false, dst, a, b, m, k, n) }},
	{"avx2", useAVX2, func(dst, a, b []float64, m, k, n int) { matMulBlocked(true, dst, a, b, m, k, n) }},
}

// blockedVsRef runs one product through tile, holds it to MatMulSlices's
// bits and returns it with the number of row blocks that fell back to the
// reference loop.
func blockedVsRef(t *testing.T, tile blockedTile, a, b []float64, m, k, n int) (got []float64, fell uint64) {
	t.Helper()
	got, want := make([]float64, m*n), make([]float64, m*n)
	before := blockedFallbacks.Load()
	tile.mul(got, a, b, m, k, n)
	fell = blockedFallbacks.Load() - before
	MatMulSlices(want, a, b, m, k, n)
	requireSameBits(t, "blocked product", got, want, n)
	return got, fell
}

// TestMatMulBlockedFallbacks pins which products leave the register tile for
// the reference loop. A stuck-at-0 device must not be one of them — its
// weight matrix is a tenth exact zeros, and a fault map that served slower
// than a healthy device would bias the latency the fleet's hedging reads —
// so this is a count, not a timing.
func TestMatMulBlockedFallbacks(t *testing.T) {
	for _, tile := range blockedTiles {
		t.Run(tile.name, func(t *testing.T) {
			if !tile.ok {
				t.Skip("host has no " + tile.name)
			}
			testMatMulBlockedFallbacks(t, tile)
		})
	}
}

func testMatMulBlockedFallbacks(t *testing.T, tile blockedTile) {
	for _, s := range convProductShapes {
		a, b := sa0Product(s[0], s[1], s[2])
		if _, fell := blockedVsRef(t, tile, a, b, s[0], s[1], s[2]); fell != 0 {
			t.Errorf("(%d×%d)·(%d×%d), 10%% zero weights, finite activations: %d row blocks fell back, want 0",
				s[0], s[1], s[1], s[2], fell)
		}
	}

	// One +Inf activation: column j of every row is non-finite (±Inf where
	// the weight facing it is non-zero), so every row block goes back — and
	// the row whose facing weight is zero must come out finite, as the
	// reference's skip leaves it, not the tile's 0·Inf = NaN.
	const m, k, n = 12, 27, 40
	a, b := sa0Product(m, k, n)
	for i := range a {
		if a[i] == 0 {
			a[i] = 0.5
		}
	}
	a[5*k+3] = 0
	b[3*n+17] = math.Inf(1)
	got, fell := blockedVsRef(t, tile, a, b, m, k, n)
	if fell != m/4 {
		t.Errorf("+Inf activation: %d row blocks fell back, want all %d", fell, m/4)
	}
	if v := got[5*n+17]; math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("zero weight facing +Inf: element (5,17) = %v, want the finite sum of the other terms", v)
	}

	// Overflow to ±Inf in one row, no zero weight anywhere: only that row's
	// block goes back, and the bits are still the reference's.
	b[3*n+17] = 0.25
	a[5*k+3] = 0.5
	a[9*k+0], a[9*k+1] = math.MaxFloat64, math.MaxFloat64
	b[0*n+2], b[1*n+2] = 1.5, 1.5
	if _, fell := blockedVsRef(t, tile, a, b, m, k, n); fell != 1 {
		t.Errorf("overflow in row 9: %d row blocks fell back, want 1", fell)
	}
}
