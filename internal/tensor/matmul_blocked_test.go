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

// biasSalts are the biases FuzzMatMulBlockedVsRef's epilogue arm mixes in:
// −0, NaN, ±Inf, and −MaxFloat64, which takes a finite accumulator of the
// MaxFloat64 salt class past −MaxFloat64 to −Inf.
var biasSalts = []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -math.MaxFloat64}

// blockedTile is one kernel behind the blocked products: the Go fold, or one
// of amd64's register tiles; blockedTiles lists them all, ok reporting
// whether this host can run it (off amd64, only the Go fold).
type blockedTile struct {
	name string
	ok   bool
	t    tile
}

var blockedTiles = []blockedTile{
	{"generic", true, tileGeneric},
	{"sse2", hostTile >= tileSSE2, tileSSE2},
	{"avx2", hostTile >= tileAVX2, tileAVX2},
	{"avx512", hostTile >= tileAVX512, tileAVX512},
}

// mul runs the contiguous (m×k)·(k×n) product on the tile as the widest,
// through the sweep every blocked product runs: it stores ReLU(a·b + bias)
// given a bias per row, the raw product given nil.
func (bt blockedTile) mul(dst, a, b, bias []float64, m, k, n int) {
	mulBlocked(bt.t, dst, a, b, bias, RowOffsets(k, n), m, n, n, 1, 0)
}

// refBiasReLU is the fused store's contract spelled out on the reference
// loop: ReLUBits(MatMulSlices's element + its row's bias).
func refBiasReLU(a, b, bias []float64, m, k, n int) []float64 {
	want := make([]float64, m*n)
	MatMulSlices(want, a, b, m, k, n)
	for i, v := range want {
		want[i] = math.Float64frombits(ReLUBits(v + bias[i/n]))
	}
	return want
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

// denseProductShapes are the (k, n) of the (batch × k)·(k × n) products of
// the dense layers of LeNet-5 and ConvNet-7, then of the stock MLP.
var denseProductShapes = [][2]int{{400, 120}, {120, 84}, {84, 10}, {512, 128}, {128, 64}, {64, 10}, {16, 24}, {24, 16}, {16, 6}}

// FuzzMatMulBlockedVsRef holds every tile the host can run to MatMulSlices's
// bits on fuzzer-chosen shapes (m 1..13, k 0..40, n 1..37: below each tile's
// threshold, ragged rows and columns on every width, an empty sum; or, for
// dense 1..9, m 1..13 rows of that dense product of denseProductShapes) with
// operands salted from the value classes where "multiply every term" and
// "skip zero terms" could part: signed zeros, denormals, ±Inf, NaN and
// ±MaxFloat64. meet != 0 additionally plants the one case that does part them
// — a zero in a facing a +Inf in b. Each tile runs twice: storing the raw
// product, and with a per-row bias salted from biasSalts, storing its fused
// bias + ReLU, held to refBiasReLU. dst starts poisoned so an element the
// kernel failed to write shows. The committed corpus under testdata/fuzz
// names the cases.
func FuzzMatMulBlockedVsRef(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(24), uint8(15), uint8(0), uint16(0), uint8(0))
	f.Add(int64(2), uint8(11), uint8(9), uint8(36), uint8(0x1f), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, mb, kb, nb, classes uint8, meet uint16, dense uint8) {
		m, k, n := int(mb)%13+1, int(kb)%41, int(nb)%37+1
		if d := int(dense); d >= 1 && d <= len(denseProductShapes) {
			k, n = denseProductShapes[d-1][0], denseProductShapes[d-1][1]
		}
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
		bias := make([]float64, m)
		for i := range bias {
			bias[i] = r.Float64()*4 - 2
			if c := r.Intn(2 * len(biasSalts)); c < len(biasSalts) {
				bias[i] = biasSalts[c]
			}
		}
		got, want := make([]float64, m*n), make([]float64, m*n)
		MatMulSlices(want, a, b, m, k, n)
		wantReLU := refBiasReLU(a, b, bias, m, k, n)
		for _, tile := range blockedTiles {
			if !tile.ok {
				continue
			}
			for i := range got {
				got[i] = -12345.678
			}
			tile.mul(got, a, b, nil, m, k, n)
			requireSameBits(t, tile.name+" product", got, want, n)
			for i := range got {
				got[i] = -12345.678
			}
			tile.mul(got, a, b, bias, m, k, n)
			requireSameBits(t, tile.name+" bias + ReLU", got, wantReLU, n)
		}
	})
}

// TestBiasReLUEpilogueTable holds every tile's in-store epilogue — the packed
// add of the bias, then MAXPD against +0 — to ReLUBits(v + b), bit for bit,
// on each finite accumulator class (±0, ±denormal, ±1, ±MaxFloat64) crossed
// with each bias class (0, −0, NaN, ±Inf). Finite accumulators are the only
// ones the vector epilogue sees: a non-finite one sends its row block to the
// reference loop and the scalar epilogue. With k = 1 and a = 1 the
// accumulator of column j is +0 + 1·b[j], the planted value itself (the −0
// entry lands as +0, as it does in MatMulSlices); n = 16 is a whole tile of
// every width, and five bias rows make a ragged row block.
func TestBiasReLUEpilogueTable(t *testing.T) {
	accs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, math.MaxFloat64, -math.MaxFloat64}
	biases := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	const n = 16
	m := len(biases)
	a := make([]float64, m)
	for i := range a {
		a[i] = 1
	}
	b := make([]float64, n)
	for j := range b {
		b[j] = accs[j%len(accs)]
	}
	want := refBiasReLU(a, b, biases, m, 1, n)
	for _, tile := range blockedTiles {
		t.Run(tile.name, func(t *testing.T) {
			if !tile.ok {
				t.Skip("host has no " + tile.name)
			}
			got := make([]float64, m*n)
			tile.mul(got, a, b, biases, m, 1, n)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("accumulator %v, bias %v: stored %x, ReLUBits(v + b) = %x",
						b[i%n], biases[i/n], math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		})
	}
}
