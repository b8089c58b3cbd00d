package tensor

import (
	"math"
	"testing"

	"reramtest/internal/rng"
)

// saltClasses are the value classes FuzzMatMulBlockedVsRef mixes into its
// operands, one per bit of its classes argument.
var saltClasses = [][]float64{
	{0, math.Copysign(0, -1)},
	{5e-324, -5e-324, 0x1p-1040},
	{math.Inf(1), math.Inf(-1)},
	{math.NaN()},
	{math.MaxFloat64, -math.MaxFloat64},
}

// blockedTile is one kernel behind MatMulBlockedSlices; blockedTiles (one
// definition per platform) lists them all, ok reporting whether this host
// can run it.
type blockedTile struct {
	name string
	ok   bool
	mul  func(dst, a, b []float64, m, k, n int)
}

// requireSameBits fails unless got and want hold the same IEEE-754 bit
// patterns, reading both as (·×n) matrices for the message.
func requireSameBits(t *testing.T, what string, got, want []float64, n int) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s element (%d,%d): got %x (%v), reference %x (%v)", what, i/n, i%n,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// FuzzMatMulBlockedVsRef holds every tile of MatMulBlockedSlices the host
// can run to MatMulSlices's bits on fuzzer-chosen shapes (m 1..13, k 0..40,
// n 1..37: below either tile's threshold, ragged rows and columns on both
// widths, an empty sum) with operands salted from the value
// classes where "multiply every term" and "skip zero terms" could part:
// signed zeros, denormals, ±Inf, NaN and ±MaxFloat64. meet != 0 additionally
// plants the one case that does part them — a zero in a facing a +Inf in b.
// dst starts poisoned so an element the kernel failed to write shows. The
// committed corpus under testdata/fuzz names the cases.
func FuzzMatMulBlockedVsRef(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(24), uint8(15), uint8(0), uint16(0))
	f.Add(int64(2), uint8(11), uint8(9), uint8(36), uint8(0x1f), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, mb, kb, nb, classes uint8, meet uint16) {
		m, k, n := int(mb)%13+1, int(kb)%41, int(nb)%37+1
		r := rng.New(seed)
		fill := func(dst []float64) {
			for i := range dst {
				dst[i] = r.Float64()*4 - 2
				if c := r.Intn(16); c < len(saltClasses) && classes>>c&1 == 1 {
					dst[i] = saltClasses[c][r.Intn(len(saltClasses[c]))]
				}
			}
		}
		a, b := make([]float64, m*k), make([]float64, k*n)
		fill(a)
		fill(b)
		if meet != 0 && k > 0 {
			i, p, j := int(meet)%m, int(meet>>4)%k, int(meet>>8)%n
			a[i*k+p] = 0
			b[p*n+j] = math.Inf(1)
		}
		got, want := make([]float64, m*n), make([]float64, m*n)
		MatMulSlices(want, a, b, m, k, n)
		for _, tile := range blockedTiles {
			if !tile.ok {
				continue
			}
			for i := range got {
				got[i] = -12345.678
			}
			tile.mul(got, a, b, m, k, n)
			requireSameBits(t, tile.name+" product", got, want, n)
		}
	})
}
