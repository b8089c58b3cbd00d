package nn

import (
	"fmt"
	"math"
	"testing"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// refForward is the reference forward pass of one layer over the whole batch
// x, composed of the kernels every fast path is held to: a convolution is
// Im2ColInto, MatMulSlices and the bias per sample; a dense layer is
// MatMulSlices and the bias; a ReLU is v > 0 ? v : +0; a max-pool is the
// bounds-tested window sweep that records the training argmax
// (TrainForwardRange). An average pool has no second kernel: its
// ForwardBatchRange is pinned by TestAvgPoolKnownValues and the fixtures.
func refForward(l Layer, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	switch l := l.(type) {
	case *Conv2D:
		g := l.geom
		spatial, ckk, inVol := g.OutH()*g.OutW(), g.InC*g.KH*g.KW, l.sampleVolume()
		cols := make([]float64, ckk*spatial)
		out := tensor.New(n, l.outC*spatial)
		for s := 0; s < n; s++ {
			tensor.Im2ColInto(cols, x.Data()[s*inVol:(s+1)*inVol], g)
			o := out.Data()[s*l.outC*spatial : (s+1)*l.outC*spatial]
			tensor.MatMulSlices(o, l.weight.Value.Data(), cols, l.outC, ckk, spatial)
			for i := range o {
				o[i] += l.bias.Value.Data()[i/spatial]
			}
		}
		return out
	case *Dense:
		out := tensor.New(n, l.out)
		od := out.Data()
		tensor.MatMulSlices(od, x.Data(), l.weight.Value.Data(), n, l.in, l.out)
		for i := range od {
			od[i] += l.bias.Value.Data()[i%l.out]
		}
		return out
	case *ReLU:
		out := x.Clone()
		for i, v := range out.Data() {
			if !(v > 0) {
				out.Data()[i] = 0
			}
		}
		return out
	case *MaxPool2D:
		outVol := volume(l.OutputShape(nil))
		out := tensor.New(n, outVol)
		l.TrainForwardRange(out, x, 0, n, TrainCache{Ints: make([]int, n*outVol)})
		return out
	}
	panic(fmt.Sprintf("refForward: no reference for %T", l))
}

// refChain runs x through layers on refForward, skipping Flatten.
func refChain(layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range layers {
		if _, flat := l.(*Flatten); !flat {
			x = refForward(l, x)
		}
	}
	return x
}

// TestSoftmaxInPlaceMatchesSoftmax: same kernel, bit-identical output.
func TestSoftmaxInPlaceMatchesSoftmax(t *testing.T) {
	r := rng.New(3)
	logits := tensor.Randn(r, 0, 3, 5, 7)
	want := Softmax(logits)
	got := logits.Clone()
	SoftmaxInPlace(got)
	if !got.Equal(want) {
		t.Fatal("SoftmaxInPlace differs from Softmax")
	}
}

// TestForwardBatchRangeMatchesForward: every BatchInfer layer must reproduce
// its reference forward (refForward) bit-exactly, both over the full batch
// and assembled from partial row ranges.
func TestForwardBatchRangeMatchesForward(t *testing.T) {
	r := rng.New(4)
	convGeom := tensor.ConvGeom{InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	poolGeom := tensor.ConvGeom{InC: 2, InH: 7, InW: 7, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	cases := []struct {
		name  string
		layer Layer
		inVol int
	}{
		{"dense", NewDense("d", r, 13, 9), 13},
		{"conv", NewConv2D("c", r, convGeom, 4), 2 * 7 * 7},
		{"maxpool", NewMaxPool2D("mp", poolGeom), 2 * 7 * 7},
		{"avgpool", NewAvgPool2D("ap", poolGeom), 2 * 7 * 7},
		{"relu", NewReLU("r"), 11},
	}
	const n = 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bl, ok := tc.layer.(BatchInfer)
			if !ok {
				t.Fatalf("%T does not implement BatchInfer", tc.layer)
			}
			x := tensor.Randn(rng.New(9), 0, 1, n, tc.inVol)
			outVol := volume(tc.layer.OutputShape([]int{tc.inVol}))
			scratch := make([]float64, bl.InferScratch())
			full := tensor.New(n, outVol)
			bl.ForwardBatchRange(full, x, 0, n, scratch)
			if _, avg := tc.layer.(*AvgPool2D); !avg && !full.Equal(refForward(tc.layer, x)) {
				t.Fatal("full-range ForwardBatchRange differs from the reference")
			}
			ranged := tensor.New(n, outVol)
			bl.ForwardBatchRange(ranged, x, 0, 2, scratch)
			bl.ForwardBatchRange(ranged, x, 2, n, scratch)
			if !ranged.Equal(full) {
				t.Fatal("assembled row ranges differ from full range")
			}
		})
	}
}

// poolTableGeoms are the window geometries the max-pool tables sweep: every
// way a window can sit against the input's edge.
var poolTableGeoms = []tensor.ConvGeom{
	{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2},                   // every window inside
	{InC: 2, InH: 5, InW: 6, KH: 3, KW: 2, StrideH: 1, StrideW: 2},                   // overlapping, non-square
	{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, // every edge window clipped
	{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, // clipped ring, interior core
	{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2}, // corner windows see padding only
}

// poolTableInputs are the fills on which a window maximum's tie and NaN rules
// are visible; at(i) is the value of flat input element i.
var poolTableInputs = func() []struct {
	name string
	at   func(i int) float64
} {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	fill := func(vals ...float64) func(i int) float64 {
		return func(i int) float64 { return vals[i%len(vals)] }
	}
	return []struct {
		name string
		at   func(i int) float64
	}{
		{"nan-first", fill(nan, 1, 2, 3, 4)},
		{"nan-later", fill(3, nan, 1, nan, 2, 5, nan)},
		{"all-nan", fill(nan)},
		{"zero-ties", fill(0, negZero, negZero, 0, negZero)},
		{"negative", fill(-3, -1, -2, -5, -4, -1)},
	}
}()

// TestMaxPoolBatchRangeTable holds MaxPool2D.ForwardBatchRange's two sweeps —
// windows wholly inside the input, and bounds-tested windows on a padded
// edge — to the training sweep's bits (refForward) on the inputs where "first
// element, then strictly greater" is visible: a NaN first in its window
// stays, a NaN later never wins, and of +0 and −0 the earlier one stays.
func TestMaxPoolBatchRangeTable(t *testing.T) {
	for _, g := range poolTableGeoms {
		for _, in := range poolTableInputs {
			const n = 3
			inVol := g.InC * g.InH * g.InW
			x := tensor.New(n, inVol)
			for i := range x.Data() {
				x.Data()[i] = in.at(i)
			}
			p := NewMaxPool2D("mp", g)
			want := refForward(p, x)
			got := tensor.New(n, want.Len()/n)
			for i := range got.Data() {
				got.Data()[i] = 99
			}
			p.ForwardBatchRange(got, x, 0, n, nil)
			for i, w := range want.Data() {
				if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
					t.Errorf("%s %+v: output %d = %v, the reference says %v", in.name, g, i, got.Data()[i], w)
					break
				}
			}
		}
	}
}

// TestDenseBatchRangeMatchesForward holds Dense.ForwardBatchRange — four
// sample rows per register tile, the reference loop under four rows — to
// the reference forward's bits (MatMulSlices + bias) on every dense shape of LeNet-5, ConvNet-7 and the
// stock MLP, at batches on both sides of the tile's four rows, whole and
// assembled from row ranges that are not multiples of four (the train
// engine's chunks), on healthy weights and on weights a tenth stuck at 0,
// facing ReLU'd inputs of which half are exact zeros.
func TestDenseBatchRangeMatchesForward(t *testing.T) {
	shapes := [][2]int{{400, 120}, {120, 84}, {84, 10}, {512, 128}, {128, 64}, {64, 10}, {16, 24}, {24, 16}, {16, 6}}
	for _, sh := range shapes {
		for _, sa0 := range []bool{false, true} {
			r := rng.New(int64(sh[0] + sh[1]))
			d := NewDense("d", r, sh[0], sh[1])
			for i := range d.bias.Value.Data() {
				d.bias.Value.Data()[i] = r.Float64() - 0.5
			}
			if sa0 {
				for i := range d.weight.Value.Data() {
					if r.Intn(10) == 0 {
						d.weight.Value.Data()[i] = 0
					}
				}
			}
			for _, n := range []int{1, 3, 4, 5, 8, 64} {
				x := refForward(NewReLU("r"), tensor.RandUniform(r, -1, 1, n, sh[0]))
				want := refForward(d, x).Data()
				what := fmt.Sprintf("%d→%d sa0=%v batch %d", sh[0], sh[1], sa0, n)
				got := tensor.Full(99, n, sh[1])
				d.ForwardBatchRange(got, x, 0, n, nil)
				requireSameBits(t, what, got.Data(), want)
				for _, chunk := range []int{3, 5, 7} {
					got := tensor.Full(99, n, sh[1])
					for lo := 0; lo < n; lo += chunk {
						d.ForwardBatchRange(got, x, lo, min(lo+chunk, n), nil)
					}
					requireSameBits(t, fmt.Sprintf("%s in chunks of %d", what, chunk), got.Data(), want)
				}
			}
		}
	}
}
