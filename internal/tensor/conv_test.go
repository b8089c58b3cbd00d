package tensor

import (
	"fmt"
	"math"
	"testing"

	"reramtest/internal/rng"
)

// paperConv is one convolution layer of LeNet-5 or ConvNet-7.
type paperConv struct {
	name string
	g    ConvGeom
	outC int
}

// paperConvs are the six convolutions of LeNet-5 and ConvNet-7, the
// geometries the engine sends through ConvPlan.
var paperConvs = []paperConv{
	{"lenet5.conv1", ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, 6},
	{"lenet5.conv2", ConvGeom{InC: 6, InH: 14, InW: 14, KH: 5, KW: 5, StrideH: 1, StrideW: 1}, 16},
	{"convnet7.conv1", ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 12},
	{"convnet7.conv2", ConvGeom{InC: 12, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 24},
	{"convnet7.conv3", ConvGeom{InC: 24, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 32},
	{"convnet7.conv4", ConvGeom{InC: 32, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 32},
}

// refConv is the reference chain ConvPlan is held to: Im2ColInto, then
// MatMulSlices, then the bias, then ReLUBits when relu is set.
func refConv(g ConvGeom, outC int, w, x, bias []float64, relu bool) []float64 {
	spatial, ckk := g.OutH()*g.OutW(), g.InC*g.KH*g.KW
	cols := make([]float64, ckk*spatial)
	Im2ColInto(cols, x, g)
	out := make([]float64, outC*spatial)
	MatMulSlices(out, w, cols, outC, ckk, spatial)
	for i, v := range out {
		out[i] = v + bias[i/spatial]
		if relu {
			out[i] = math.Float64frombits(ReLUBits(out[i]))
		}
	}
	return out
}

// convVsRef runs one sample through plan on tile t, with dst and scratch
// poisoned so an element the plan fails to write — an output, or a border
// zero of the bordered copy — shows, holds it to refConv's bits and returns
// the number of row blocks that fell back to the Go fold.
func convVsRef(t *testing.T, what string, bt blockedTile, cv paperConv, w, x, bias []float64, relu bool) (fell uint64) {
	t.Helper()
	plan := NewConvPlan(cv.g, cv.outC)
	want := refConv(cv.g, cv.outC, w, x, bias, relu)
	got, scratch := make([]float64, len(want)), make([]float64, plan.Scratch()+3)
	for i := range got {
		got[i] = -12345.678
	}
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	before := blockedFallbacks.Load()
	plan.forward(bt.t, got, w, x, bias, scratch, relu)
	fell = blockedFallbacks.Load() - before
	n := cv.g.OutH() * cv.g.OutW()
	requireSameBits(t, fmt.Sprintf("%s %s on %s (relu %v)", cv.name, what, bt.name, relu), got, want, n)
	return fell
}

// TestConvPlanMatchesReference holds ConvPlan on the Go fold (the kernel
// off amd64) and on every register tile the host
// runs to the reference chain's bits, with and without the ReLU, on every
// paper convolution plus a strided one (read from its im2col panel), an
// unpadded one narrower than any tile, a 1×1 one, one padded past its
// window, and rows exactly one tile half wide (paired, an odd last row
// overlapping): once on plain values, once with zero weights facing inputs salted
// with ±0, denormals, ±Inf and NaN, where a tile's block falls back.
func TestConvPlanMatchesReference(t *testing.T) {
	convs := append(paperConvs[:len(paperConvs):len(paperConvs)],
		paperConv{"strided", ConvGeom{InC: 3, InH: 9, InW: 11, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 5},
		paperConv{"row-strided", ConvGeom{InC: 2, InH: 9, InW: 20, KH: 3, KW: 2, StrideH: 2, StrideW: 1}, 4},
		paperConv{"unpadded-narrow", ConvGeom{InC: 2, InH: 12, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, 7},
		paperConv{"1x1", ConvGeom{InC: 4, InH: 6, InW: 17, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 9},
		paperConv{"pad-past-window", ConvGeom{InC: 1, InH: 5, InW: 19, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 3, PadW: 2}, 4},
		paperConv{"rows-of-8-odd", ConvGeom{InC: 2, InH: 7, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 6},
		paperConv{"rows-of-4-odd", ConvGeom{InC: 3, InH: 5, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 5},
		paperConv{"rows-of-2", ConvGeom{InC: 1, InH: 6, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 4},
	)
	for ci, cv := range convs {
		ckk := cv.g.InC * cv.g.KH * cv.g.KW
		r := rng.New(int64(ci + 1))
		w := RandUniform(r, -1, 1, cv.outC*ckk).Data()
		x := RandUniform(r, -1, 1, cv.g.InC*cv.g.InH*cv.g.InW).Data()
		bias := RandUniform(r, -0.5, 0.5, cv.outC).Data()
		bias[0] = math.Copysign(0, -1)
		salted := func(v []float64, classes ...int) []float64 {
			s := append([]float64(nil), v...)
			for i := range s {
				if c := r.Intn(12); c < len(classes) {
					cls := saltClasses[classes[c]]
					s[i] = cls[r.Intn(len(cls))]
				}
			}
			return s
		}
		ws, xs := salted(w, 0), salted(x, 0, 1, 2, 3)
		for _, bt := range blockedTiles {
			if !bt.ok {
				continue
			}
			for _, relu := range []bool{false, true} {
				convVsRef(t, "plain", bt, cv, w, x, bias, relu)
				convVsRef(t, "salted", bt, cv, ws, xs, bias, relu)
			}
		}
	}
}

// TestConvPlanScratch pins what each kind of convolution reads its operand
// from: a bordered copy of the sample at unit stride with padding, the
// sample itself unpadded, the im2col panel when strided.
func TestConvPlanScratch(t *testing.T) {
	for _, tc := range []struct {
		g    ConvGeom
		want int
	}{
		{paperConvs[0].g, 1 * 32 * 32},
		{paperConvs[1].g, 0},
		{paperConvs[5].g, 32 * 10 * 10},
		{ConvGeom{InC: 3, InH: 9, InW: 11, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 27 * 5 * 6},
	} {
		if got := NewConvPlan(tc.g, 4).Scratch(); got != tc.want {
			t.Errorf("%+v: Scratch() = %d, want %d", tc.g, got, tc.want)
		}
	}
}
