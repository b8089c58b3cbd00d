package nn

import (
	"math"
	"testing"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// saltClasses are the value classes the conv-block tests mix into weights,
// biases and inputs, one per bit of a classes mask — the classes of tensor's
// FuzzMatMulBlockedVsRef, where a register tile, a skipped zero weight and
// the ReLU's comparison could each part from the reference.
var saltClasses = [][]float64{
	{0, math.Copysign(0, -1)},
	{5e-324, -5e-324, 0x1p-1040},
	{math.Inf(1), math.Inf(-1)},
	{math.NaN()},
	{math.MaxFloat64, -math.MaxFloat64},
}

// salt overwrites about a third of dst with values of the classes whose bit
// is set.
func salt(r *rng.RNG, dst []float64, classes uint8) {
	for i := range dst {
		if c := r.Intn(16); c < len(saltClasses) && classes>>c&1 == 1 {
			dst[i] = saltClasses[c][r.Intn(len(saltClasses[c]))]
		}
	}
}

// requireSameBits fails unless got and want hold the same IEEE-754 bit
// patterns.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s element %d: got %x (%v), reference %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// blockVsChain builds conv (→ ReLU → pool when pool is non-nil) with salted
// weights, biases and inputs and holds the fused block to the bits of the
// layers' Forward chain, over the whole batch and assembled from row ranges.
// The first bias is −0, the one addend that can turn a +0 product negative.
func blockVsChain(t *testing.T, seed int64, cg tensor.ConvGeom, outC int, pg *tensor.ConvGeom, classes uint8) {
	t.Helper()
	r := rng.New(seed)
	conv := NewConv2D("c", r, cg, outC)
	salt(r, conv.weight.Value.Data(), classes)
	bias := conv.bias.Value.Data()
	for i := range bias {
		bias[i] = r.Float64()*2 - 1
	}
	salt(r, bias, classes)
	bias[0] = math.Copysign(0, -1)
	layers := []Layer{conv, NewReLU("r")}
	if pg != nil {
		layers = append(layers, NewMaxPool2D("p", *pg))
	}
	const n = 3
	x := tensor.Randn(r, 0, 1, n, conv.sampleVolume())
	salt(r, x.Data(), classes)

	want := x
	for _, l := range layers {
		want = l.Forward(want)
	}
	blk, k := FuseConvBlock(layers)
	if k != len(layers) {
		t.Fatalf("FuseConvBlock took %d of %d layers", k, len(layers))
	}
	outVol := want.Len() / n
	scratch := make([]float64, blk.InferScratch())
	got := tensor.Full(99, n, outVol)
	blk.ForwardBatchRange(got, x, 0, n, scratch)
	requireSameBits(t, "fused block", got.Data(), want.Data())
	ranged := tensor.Full(99, n, outVol)
	blk.ForwardBatchRange(ranged, x, 1, n, scratch)
	blk.ForwardBatchRange(ranged, x, 0, 1, scratch)
	requireSameBits(t, "fused block by row ranges", ranged.Data(), want.Data())
}

// TestConvBlockMatchesChain holds the fused conv → ReLU → max-pool block to
// the three layers' Forward chain, bit for bit, over the pool geometries of
// TestMaxPoolBatchRangeTable, fed by a 3×3 same-size convolution of five
// output channels (a register tile plus a ragged row), with every salt class
// mixed in and with none.
func TestConvBlockMatchesChain(t *testing.T) {
	for gi, pg := range poolTableGeoms {
		pg.InC = 5
		cg := tensor.ConvGeom{InC: 2, InH: pg.InH, InW: pg.InW, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		for _, classes := range []uint8{0, 0x1f} {
			blockVsChain(t, int64(10+gi), cg, pg.InC, &pg, classes)
			blockVsChain(t, int64(20+gi), cg, pg.InC, nil, classes)
		}
	}
}

// TestFuseConvBlockPattern pins what FuseConvBlock takes: a ReLU must follow
// the convolution, and a pool rides along only if it reads the convolution's
// output map as the convolution shapes it.
func TestFuseConvBlockPattern(t *testing.T) {
	r := rng.New(1)
	cg := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv, relu := NewConv2D("c", r, cg, 4), NewReLU("r")
	pool := NewMaxPool2D("p", tensor.ConvGeom{InC: 4, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	reshaped := NewMaxPool2D("p", tensor.ConvGeom{InC: 2, InH: 12, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	for _, tc := range []struct {
		name   string
		layers []Layer
		want   int
	}{
		{"conv relu pool", []Layer{conv, relu, pool, NewFlatten("f")}, 3},
		{"conv relu", []Layer{conv, relu}, 2},
		{"conv relu dense", []Layer{conv, relu, NewDense("d", r, 144, 3)}, 2},
		{"pool reads another shape", []Layer{conv, relu, reshaped}, 2},
		{"avg pool stays out", []Layer{conv, relu, NewAvgPool2D("a", pool.geom)}, 2},
		{"no relu", []Layer{conv, pool}, 0},
		{"tanh", []Layer{conv, NewTanh("t"), pool}, 0},
		{"conv alone", []Layer{conv}, 0},
		{"not a conv", []Layer{relu, pool}, 0},
		{"empty", nil, 0},
	} {
		blk, k := FuseConvBlock(tc.layers)
		if k != tc.want || (blk == nil) != (k == 0) {
			t.Errorf("%s: FuseConvBlock = (%v, %d), want %d layers", tc.name, blk, k, tc.want)
		}
		if k > 0 && (blk.pool != nil) != (k == 3) {
			t.Errorf("%s: block pool = %v with %d layers fused", tc.name, blk.pool, k)
		}
	}
}

// TestReLUBitsTable holds tensor.ReLUBits, and the ReLU kernel built on it,
// to Forward's v > 0 ? v : +0 on every value class that rule distinguishes.
func TestReLUBitsTable(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000)}
	x := tensor.FromSlice(vals, 1, len(vals))
	l := NewReLU("r")
	want := l.Forward(x)
	for i, v := range vals {
		if got := tensor.ReLUBits(v); got != math.Float64bits(want.Data()[i]) {
			t.Errorf("ReLUBits(%v [%x]) = %x, Forward says %x", v, math.Float64bits(v), got, math.Float64bits(want.Data()[i]))
		}
	}
	got := tensor.Full(99, 1, len(vals))
	l.ForwardBatchRange(got, x, 0, 1, nil)
	requireSameBits(t, "ReLU.ForwardBatchRange", got.Data(), want.Data())
}

// TestReLUMaxPoolTable drives the fused step's max-only pool directly on
// ReLU'd panels — the ReLU of the table of TestMaxPoolBatchRangeTable (NaN
// first and later in a window, all NaN, ±0 ties, all negative) under a zero,
// a −0, a positive and a NaN bias, over windows inside, clipped and made of
// padding only — against MaxPool2D.Forward of the same panel.
func TestReLUMaxPoolTable(t *testing.T) {
	biases := []float64{0, math.Copysign(0, -1), 2.5, math.NaN()}
	for _, g := range poolTableGeoms {
		for _, in := range poolTableInputs {
			for bi := range biases {
				vol := g.InC * g.InH * g.InW
				biased := tensor.New(1, vol)
				bias := make([]float64, g.InC)
				for c := range bias {
					bias[c] = biases[(bi+c)%len(biases)]
				}
				for i := range biased.Data() {
					biased.Data()[i] = in.at(i) + bias[i/(g.InH*g.InW)]
				}
				panel := NewReLU("r").Forward(biased)
				want := NewMaxPool2D("p", g).Forward(panel)
				got := tensor.Full(99, 1, want.Len())
				reluMaxPool(got.Data(), panel.Data(), g)
				for i, w := range want.Data() {
					if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
						t.Errorf("%s bias %v %+v: output %d = %v, the layer chain says %v", in.name, bias, g, i, got.Data()[i], w)
						break
					}
				}
			}
		}
	}
}

// FuzzConvBlockVsChain holds the fused block to the Forward chain's bits on
// fuzzer-chosen convolution and pool geometries — kernels, strides and
// paddings of 1..3 (a padding may exceed its window), outputs on both sides
// of the register tile's thresholds — with salted operands. pool == 0 fuses
// conv → ReLU only. The committed corpus under testdata/fuzz names the cases.
func FuzzConvBlockVsChain(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, shape, convWin, pool, poolWin, classes uint8) {
		// shape: inC 1..2 | inH 1..8 | inW 1..8 | outC 1..6 over its bits
		cg := tensor.ConvGeom{InC: int(shape&1) + 1, InH: int(shape>>1&7) + 1, InW: int(shape>>4&7) + 1}
		outC := int(shape>>7) + int(convWin>>6) + 1 + int(pool>>7)*2
		// convWin: k 1..3, stride 1..2, pad 0..3 (square); poolWin likewise per axis
		cg.KH, cg.KW = int(convWin&3)%3+1, int(convWin&3)%3+1
		cg.StrideH, cg.StrideW = int(convWin>>2&1)+1, int(convWin>>2&1)+1
		cg.PadH, cg.PadW = int(convWin>>3&3), int(convWin>>3&3)
		if cg.Validate() != nil {
			t.Skip("degenerate convolution")
		}
		var pg *tensor.ConvGeom
		if pool&1 == 1 {
			pg = &tensor.ConvGeom{InC: outC, InH: cg.OutH(), InW: cg.OutW(),
				KH: int(poolWin&3)%3 + 1, KW: int(poolWin>>2&3)%3 + 1,
				StrideH: int(poolWin>>4&1) + 1, StrideW: int(poolWin>>5&1) + 1,
				PadH: int(poolWin >> 6), PadW: int(pool >> 1 & 3)}
			if pg.Validate() != nil {
				t.Skip("degenerate pool")
			}
		}
		blockVsChain(t, seed, cg, outC, pg, classes)
	})
}
