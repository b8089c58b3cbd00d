package tensor

import (
	"fmt"
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

// BenchmarkMatMulBlocked times each kernel the host runs, in GFLOP/s (two
// per multiply-add): the six paper convolutions through ConvPlan from the
// sample (the bordered copy or the panel included), storing bias + ReLU as
// the engine's fused step does, with a tenth of the weights stuck at 0; and
// the six dense products of the paper models at batch 8, storing the raw
// product as Dense does (its sample rows are a, the weight matrix b).
func BenchmarkMatMulBlocked(b *testing.B) {
	for _, tile := range blockedTiles {
		for _, cv := range paperConvs {
			b.Run(fmt.Sprintf("%s/conv/%s", tile.name, cv.name), func(b *testing.B) {
				if !tile.ok {
					b.Skip("host has no " + tile.name)
				}
				g, ckk := cv.g, cv.g.InC*cv.g.KH*cv.g.KW
				w, _ := sa0Product(cv.outC, ckk, 1)
				x := RandUniform(rng.New(3), 0, 1, g.InC*g.InH*g.InW).Data()
				plan := NewConvPlan(g, cv.outC)
				dst, bias := make([]float64, cv.outC*g.OutH()*g.OutW()), make([]float64, cv.outC)
				scratch := make([]float64, plan.Scratch())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan.forward(tile.t, dst, w, x, bias, scratch, true)
				}
				b.ReportMetric(2*float64(len(dst)*ckk)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
		for _, s := range denseProductShapes[:6] {
			m, k, n := 8, s[0], s[1]
			b.Run(fmt.Sprintf("%s/dense/%dx%dx%d", tile.name, m, k, n), func(b *testing.B) {
				if !tile.ok {
					b.Skip("host has no " + tile.name)
				}
				a, p := sa0Product(m, k, n)
				dst, off := make([]float64, m*n), RowOffsets(k, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mulBlocked(tile.t, dst, a, p, nil, off, m, n, n, 1, 0)
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// blockedVsRef runs one product through tile — raw with a nil bias, else
// with the fused bias + ReLU — holds it to the reference's bits and returns
// it with the number of row blocks that fell back to the reference loop.
func blockedVsRef(t *testing.T, tile blockedTile, a, b, bias []float64, m, k, n int) (got []float64, fell uint64) {
	t.Helper()
	got, want := make([]float64, m*n), make([]float64, m*n)
	before := blockedFallbacks.Load()
	tile.mul(got, a, b, bias, m, k, n)
	fell = blockedFallbacks.Load() - before
	if bias == nil {
		MatMulSlices(want, a, b, m, k, n)
	} else {
		want = refBiasReLU(a, b, bias, m, k, n)
	}
	requireSameBits(t, "blocked product", got, want, n)
	return got, fell
}

// TestMatMulBlockedFallbacks pins which products leave the register tile for
// the reference loop. A stuck-at-0 device must not be one of them — its
// weight matrix is a tenth exact zeros, and a fault map that served slower
// than a healthy device would bias the latency the fleet's hedging reads —
// so this is a count, not a timing.
func TestMatMulBlockedFallbacks(t *testing.T) {
	for _, tile := range blockedTiles[1:] { // the register tiles: the Go fold has nothing to fall back to
		t.Run(tile.name, func(t *testing.T) {
			if !tile.ok {
				t.Skip("host has no " + tile.name)
			}
			testMatMulBlockedFallbacks(t, tile)
		})
	}
}

func testMatMulBlockedFallbacks(t *testing.T, tile blockedTile) {
	for _, cv := range paperConvs {
		g, ckk := cv.g, cv.g.InC*cv.g.KH*cv.g.KW
		w, _ := sa0Product(cv.outC, ckk, 1)
		x := RandUniform(rng.New(int64(ckk)), 0, 1, g.InC*g.InH*g.InW).Data()
		// a finite bias, and one that is each non-finite class: the tile
		// tests its accumulators before the bias, so none sends a block back
		bias := make([]float64, cv.outC)
		for i := range bias {
			bias[i] = float64(i%5) - 2
		}
		copy(bias, biasSalts)
		for _, relu := range []bool{false, true} {
			if fell := convVsRef(t, "10% zero weights", tile, cv, w, x, bias, relu); fell != 0 {
				t.Errorf("%s, 10%% zero weights, finite inputs, relu %v: %d row blocks fell back, want 0", cv.name, relu, fell)
			}
		}

		// One +Inf input element: only the tile calls whose output rows read
		// it — every 4-channel block, on the KH output rows whose windows
		// cover its row, in pairs where the tile pairs rows — go back, and
		// the bits are still the reference's.
		ih, iw := g.InH/2, g.InW/3
		xi := append([]float64(nil), x...)
		xi[(g.InC/2*g.InH+ih)*g.InW+iw] = math.Inf(1)
		per := 1
		if _, pair := tileShape(tile.t, cv.outC, g.OutW(), g.OutH()); pair {
			per = 2
		}
		calls := 0
		for r := 0; r < g.OutH(); r += per {
			r := min(r, g.OutH()-per)
			if r <= ih+g.PadH && ih+g.PadH < r+per-1+g.KH {
				calls++
			}
		}
		blocks := (cv.outC + 3) / 4
		if fell := convVsRef(t, "+Inf input", tile, cv, w, xi, bias, true); fell != uint64(blocks*calls) {
			t.Errorf("%s, +Inf input at (%d, %d): %d row blocks fell back, want %d blocks × %d tile calls",
				cv.name, ih, iw, fell, blocks, calls)
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
	got, fell := blockedVsRef(t, tile, a, b, nil, m, k, n)
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
	if _, fell := blockedVsRef(t, tile, a, b, nil, m, k, n); fell != 1 {
		t.Errorf("overflow in row 9: %d row blocks fell back, want 1", fell)
	}
	// every accumulator lane of every tile width tests its own value: one
	// overflowing element at each (row, column) of a 4×32 block — the rest
	// of its row summing to half of MaxFloat64 — sends the block back
	const k1, n1 = 2, 32
	for i := range 4 {
		for j := range n1 {
			a1, b1 := make([]float64, 4*k1), make([]float64, k1*n1)
			for p := range a1 {
				a1[p] = 0.5
			}
			for p := range b1 {
				b1[p] = 0.25
			}
			a1[i*k1], a1[i*k1+1] = math.MaxFloat64, math.MaxFloat64
			b1[j], b1[n1+j] = 1.5, 1.5
			if _, fell := blockedVsRef(t, tile, a1, b1, nil, 4, k1, n1); fell != 1 {
				t.Fatalf("overflow at (%d,%d) of a 4×%d block: %d row blocks fell back, want 1", i, j, n1, fell)
			}
		}
	}

	// the same block through the fused store: the fallback's scalar
	// epilogue gives the reference's ReLU of the overflowed row
	bias := []float64{0.5, -1, 0, 2, 0, 0, 0, 0, 0, -0.25, 1, 0}
	if _, fell := blockedVsRef(t, tile, a, b, bias, m, k, n); fell != 1 {
		t.Errorf("overflow in row 9 with bias + ReLU: %d row blocks fell back, want 1", fell)
	}

	// Dense orientation: a is a batch of ReLU'd activations (exact zeros
	// among them), b a weight matrix a tenth stuck at 0. No block goes back.
	r := rng.New(7)
	for _, s := range denseProductShapes {
		x := RandUniform(r, -1, 1, 8*s[0]).Data()
		for i := range x {
			x[i] = max(x[i], 0)
		}
		w, _ := sa0Product(s[0], s[1], 1)
		if _, fell := blockedVsRef(t, tile, x, w, nil, 8, s[0], s[1]); fell != 0 {
			t.Errorf("dense (8×%d)·(%d×%d), ReLU'd activations, 10%% zero weights: %d row blocks fell back, want 0",
				s[0], s[0], s[1], fell)
		}
	}
	// A zero activation facing a +Inf weight: the one block goes back, and
	// that row's element comes out as the reference's finite sum, not 0·Inf.
	const dk, dn = 120, 84
	x := RandUniform(r, 0.5, 1, 4*dk).Data()
	w, _ := sa0Product(dk, dn, 1)
	x[2*dk+3] = 0
	w[3*dn+17] = math.Inf(1)
	got, fell = blockedVsRef(t, tile, x, w, nil, 4, dk, dn)
	if fell != 1 {
		t.Errorf("dense zero activation facing +Inf weight: %d row blocks fell back, want 1", fell)
	}
	if v := got[2*dn+17]; math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("dense zero activation facing +Inf: element (2,17) = %v, want the finite sum of the other terms", v)
	}
}
