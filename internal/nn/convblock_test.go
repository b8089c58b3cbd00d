package nn

import (
	"fmt"
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

// pool2x2 reports whether g is the one pool geometry a ConvBlock fuses: a
// 2×2 window, stride 2, no padding, over a map at least 2×2 (on a one-pixel
// map the window would reach past the edge).
func pool2x2(g tensor.ConvGeom) bool {
	return g.KH == 2 && g.KW == 2 && g.StrideH == 2 && g.StrideW == 2 && g.PadH == 0 && g.PadW == 0 &&
		g.InH >= 2 && g.InW >= 2
}

// blockVsChain builds conv (→ ReLU → pool when pool is non-nil; the bare
// convolution, its own step, without relu) with salted weights, biases and
// inputs and holds the engine's steps for it to the bits of the layers'
// reference chain (refChain: Im2ColInto + MatMulSlices + bias, then
// v > 0 ? v : +0, then the bounds-tested window sweep), over the whole batch
// and assembled from row ranges: FuseConvBlock must fuse the pool exactly
// when pool2x2 says so, and any other pool runs as its own MaxPool2D step
// behind the conv → ReLU block.
// The first bias is −0, the one addend that can turn a +0 product negative.
func blockVsChain(t *testing.T, seed int64, cg tensor.ConvGeom, outC int, pg *tensor.ConvGeom, classes uint8, relu bool) {
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
	if !relu {
		layers = layers[:1]
	}
	const n = 3
	x := tensor.Randn(r, 0, 1, n, conv.sampleVolume())
	salt(r, x.Data(), classes)

	want := refChain(layers, x)
	steps := []BatchInfer{conv}
	if relu {
		blk, k := FuseConvBlock(layers)
		wantK := 2
		if pg != nil && pool2x2(*pg) {
			wantK = 3
		}
		if k != wantK {
			t.Fatalf("FuseConvBlock took %d of %d layers, want %d for pool %+v", k, len(layers), wantK, pg)
		}
		steps = []BatchInfer{blk}
		if k < len(layers) {
			steps = append(steps, layers[k].(*MaxPool2D))
		}
	}
	outVol := want.Len() / n
	mid := tensor.New(n, outC*cg.OutH()*cg.OutW())
	run := func(dst *tensor.Tensor, lo, hi int) {
		in := x
		for i, st := range steps {
			out := dst
			if i < len(steps)-1 {
				out = mid
			}
			st.ForwardBatchRange(out, in, lo, hi, make([]float64, st.InferScratch()))
			in = out
		}
	}
	got := tensor.Full(99, n, outVol)
	run(got, 0, n)
	requireSameBits(t, "conv block steps", got.Data(), want.Data())
	ranged := tensor.Full(99, n, outVol)
	run(ranged, 1, n)
	run(ranged, 0, 1)
	requireSameBits(t, "conv block steps by row ranges", ranged.Data(), want.Data())
}

// TestConvBlockMatchesChain holds the conv → ReLU → max-pool steps, and the
// bare convolution, to the layers' reference chain, bit for bit, over the
// pool geometries of TestMaxPoolBatchRangeTable and a fused 2×2 pool over an
// odd 5×7 map, fed by a 3×3 same-size convolution of five output channels (a
// register tile plus a ragged row), with every salt class mixed in and with
// none.
func TestConvBlockMatchesChain(t *testing.T) {
	odd := tensor.ConvGeom{InH: 5, InW: 7, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	for gi, pg := range append(poolTableGeoms[:len(poolTableGeoms):len(poolTableGeoms)], odd) {
		pg.InC = 5
		cg := tensor.ConvGeom{InC: 2, InH: pg.InH, InW: pg.InW, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		for _, classes := range []uint8{0, 0x1f} {
			blockVsChain(t, int64(10+gi), cg, pg.InC, &pg, classes, true)
			blockVsChain(t, int64(20+gi), cg, pg.InC, nil, classes, true)
			blockVsChain(t, int64(30+gi), cg, pg.InC, nil, classes, false)
		}
	}
}

// TestFuseConvBlockPattern pins what FuseConvBlock takes: a ReLU must follow
// the convolution, and a pool rides along only if it is 2×2, stride 2 and
// unpadded and reads the convolution's output map as the convolution shapes
// it.
func TestFuseConvBlockPattern(t *testing.T) {
	r := rng.New(1)
	cg := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv, relu := NewConv2D("c", r, cg, 4), NewReLU("r")
	pg := tensor.ConvGeom{InC: 4, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	pool := NewMaxPool2D("p", pg)
	reshaped := NewMaxPool2D("p", tensor.ConvGeom{InC: 2, InH: 12, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	other := func(edit func(g *tensor.ConvGeom)) *MaxPool2D {
		g := pg
		edit(&g)
		return NewMaxPool2D("p", g)
	}
	for _, tc := range []struct {
		name   string
		layers []Layer
		want   int
	}{
		{"conv relu pool", []Layer{conv, relu, pool, NewFlatten("f")}, 3},
		{"conv relu", []Layer{conv, relu}, 2},
		{"conv relu dense", []Layer{conv, relu, NewDense("d", r, 144, 3)}, 2},
		{"pool reads another shape", []Layer{conv, relu, reshaped}, 2},
		{"3x3 pool stays out", []Layer{conv, relu, other(func(g *tensor.ConvGeom) { g.KH, g.KW = 3, 3 })}, 2},
		{"2x1 pool stays out", []Layer{conv, relu, other(func(g *tensor.ConvGeom) { g.KW = 1 })}, 2},
		{"stride-1 pool stays out", []Layer{conv, relu, other(func(g *tensor.ConvGeom) { g.StrideW = 1 })}, 2},
		{"padded pool stays out", []Layer{conv, relu, other(func(g *tensor.ConvGeom) { g.PadH = 1 })}, 2},
		{"avg pool stays out", []Layer{conv, relu, NewAvgPool2D("a", pool.geom)}, 2},
		{"no relu", []Layer{conv, pool}, 0},
		{"conv alone", []Layer{conv}, 0},
		{"not a conv", []Layer{relu, pool}, 0},
		{"empty", nil, 0},
	} {
		blk, k := FuseConvBlock(tc.layers)
		if k != tc.want || (blk == nil) != (k == 0) {
			t.Errorf("%s: FuseConvBlock = (%v, %d), want %d layers", tc.name, blk, k, tc.want)
		}
		if k > 0 && blk.pool != (k == 3) {
			t.Errorf("%s: block pool = %v with %d layers fused", tc.name, blk.pool, k)
		}
	}
}

// TestReLUBitsTable holds tensor.ReLUBits, and the ReLU kernel built on it,
// to v > 0 ? v : +0 on every value class that rule distinguishes.
func TestReLUBitsTable(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000)}
	x := tensor.FromSlice(vals, 1, len(vals))
	l := NewReLU("r")
	want := refForward(l, x)
	for i, v := range vals {
		if got := tensor.ReLUBits(v); got != math.Float64bits(want.Data()[i]) {
			t.Errorf("ReLUBits(%v [%x]) = %x, the reference says %x", v, math.Float64bits(v), got, math.Float64bits(want.Data()[i]))
		}
	}
	got := tensor.Full(99, 1, len(vals))
	l.ForwardBatchRange(got, x, 0, 1, nil)
	requireSameBits(t, "ReLU.ForwardBatchRange", got.Data(), want.Data())
}

// poolKernels are the two 2×2 pool kernels: the host's (SSE2 on amd64) and
// the Go twin, which is the kernel off amd64.
var poolKernels = []struct {
	name string
	pool func(out, panel []float64, planes, inH, inW int)
}{
	{"host", tensor.ReLUMaxPool2x2},
	{"generic", tensor.ReLUMaxPool2x2Generic},
}

// reluValueClasses are the values a ReLU'd panel can hold that order
// differently as floats and as something else — +0, the smallest denormal,
// 1, MaxFloat64, +Inf — ascending.
var reluValueClasses = []float64{0, 5e-324, 1, math.MaxFloat64, math.Inf(1)}

// poolVsLayer runs every pool kernel over panel — planes (inH×inW) planes of
// ReLU'd values — and holds each to the reference 2×2 stride-2 max-pool
// (refForward) of the same panel, bit for bit. Guard elements past the
// output must stay untouched.
func poolVsLayer(t *testing.T, what string, panel []float64, planes, inH, inW int) {
	t.Helper()
	g := tensor.ConvGeom{InC: planes, InH: inH, InW: inW, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	want := refForward(NewMaxPool2D("p", g), tensor.FromSlice(panel, 1, len(panel))).Data()
	const guard = 3
	for _, k := range poolKernels {
		got := make([]float64, len(want)+guard)
		for i := range got {
			got[i] = -99
		}
		k.pool(got[:len(want)], panel, planes, inH, inW)
		requireSameBits(t, k.name+" "+what, got[:len(want)], want)
		for _, v := range got[len(want):] {
			if v != -99 {
				t.Fatalf("%s %s: kernel wrote past its %d outputs", k.name, what, len(want))
			}
		}
	}
}

// TestReLUMaxPoolTable holds both 2×2 pool kernels to the reference pool on
// panels where each window's maximum is one value class at one of the four
// window positions, the other three holding lower classes or a tie. Over the
// twenty shifts every window sees every (class, position) pair. Planes are
// even and odd in both dimensions (an odd last row or column is never pooled,
// and holds +Inf, which would win any window that read it) and widths cover
// the kernel's two-output step, its one-output tail and both.
func TestReLUMaxPoolTable(t *testing.T) {
	shapes := [][3]int{{2, 7, 7}, {3, 5, 9}, {1, 4, 4}, {2, 6, 2}, {1, 3, 3}, {2, 8, 10}}
	combos := len(reluValueClasses) * 4
	for _, sh := range shapes {
		planes, inH, inW := sh[0], sh[1], sh[2]
		outH, outW := inH/2, inW/2
		for shift := range combos {
			panel := make([]float64, planes*inH*inW)
			for i := range panel {
				panel[i] = math.Inf(1)
			}
			for w := range planes * outH * outW {
				c := (w + shift) % combos
				cls, pos := c/4, c%4
				p, oh, ow := w/(outH*outW), w/outW%outH, w%outW
				for q := range 4 {
					at := (p*inH+2*oh+q/2)*inW + 2*ow + q%2
					// below the maximum: the class under it, or a tie with
					// it on every third window
					v := reluValueClasses[max(cls-1, 0)]
					if w%3 == 0 {
						v = reluValueClasses[cls]
					}
					if q == pos {
						v = reluValueClasses[cls]
					}
					panel[at] = v
				}
			}
			poolVsLayer(t, fmt.Sprintf("%d×%d×%d shift %d", planes, inH, inW, shift), panel, planes, inH, inW)
		}
	}
}

// FuzzReLUMaxPool2x2 holds both 2×2 pool kernels to the reference pool on
// fuzzer-chosen panels — planes 1..4, inH and inW 2..40 — of ReLU'd
// uniform values salted with +0, the smallest denormal and +Inf.
func FuzzReLUMaxPool2x2(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, planesB, inHB, inWB uint8) {
		planes, inH, inW := int(planesB)%4+1, int(inHB)%39+2, int(inWB)%39+2
		r := rng.New(seed)
		panel := make([]float64, planes*inH*inW)
		for i := range panel {
			switch r.Intn(8) {
			case 0:
				panel[i] = 0
			case 1:
				panel[i] = 5e-324
			case 2:
				panel[i] = math.Inf(1)
			default:
				panel[i] = math.Float64frombits(tensor.ReLUBits(r.Float64()*4 - 2))
			}
		}
		poolVsLayer(t, fmt.Sprintf("%d×%d×%d", planes, inH, inW), panel, planes, inH, inW)
	})
}

// FuzzConvBlockVsChain holds the conv block, and the pool step behind it when
// the pool is not fused, to the reference chain's bits on fuzzer-chosen
// convolution and pool geometries — kernels, strides and paddings of 1..3 (a
// padding may exceed its window), inputs up to 68 columns wide so output rows
// fall on both sides of every tile's width and half-width, odd maps under a
// fused 2×2 pool — with salted operands; blockVsChain asserts the pool is
// fused exactly when it is 2×2, stride 2 and unpadded. pool&1 == 0 builds
// conv → ReLU only, classes bit 5 the bare convolution. The committed corpus
// under testdata/fuzz names the cases.
func FuzzConvBlockVsChain(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, shape, convWin, pool, poolWin, classes uint8) {
		// shape: inC 1..2 | inH 1..8 | inW 1..8 | outC 1..6 over its bits;
		// pool bits 3..6 widen the input by 4 columns each
		cg := tensor.ConvGeom{InC: int(shape&1) + 1, InH: int(shape>>1&7) + 1,
			InW: int(shape>>4&7) + 1 + 4*int(pool>>3&15)}
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
		blockVsChain(t, seed, cg, outC, pg, classes, classes>>5&1 == 0)
	})
}
