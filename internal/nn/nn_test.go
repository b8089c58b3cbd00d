package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		logits := tensor.Randn(rng.New(seed), 0, 5, 3, 7)
		probs := Softmax(logits)
		pd := probs.Data()
		for s := 0; s < 3; s++ {
			sum := 0.0
			for j := 0; j < 7; j++ {
				v := pd[s*7+j]
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	r := rng.New(1)
	logits := tensor.Randn(r, 0, 1, 2, 5)
	shifted := logits.Clone().Apply(func(v float64) float64 { return v + 100 })
	want := Softmax(logits).Data()
	for i, v := range Softmax(shifted).Data() {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Fatal("softmax not invariant to constant shifts")
		}
	}
}

func TestSoftmaxLargeLogitsStable(t *testing.T) {
	logits := tensor.FromSlice([]float64{1e4, 1e4 - 1, 0}, 1, 3)
	probs := Softmax(logits)
	for _, v := range probs.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", probs.Data())
		}
	}
	if probs.Data()[0] < probs.Data()[1] {
		t.Fatal("softmax ordering broken")
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	// logits strongly favouring the right class → near-zero loss
	logits := tensor.FromSlice([]float64{100, 0, 0}, 1, 3)
	loss := CrossEntropyInto(tensor.New(1, 3), logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction has loss %v", loss)
	}
}

func TestCrossEntropyUniformPrediction(t *testing.T) {
	logits := tensor.New(1, 4) // all-equal logits → uniform probs
	loss := CrossEntropyInto(tensor.New(1, 4), logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform loss %v, want ln(4)=%v", loss, math.Log(4))
	}
}

func TestCrossEntropyLabelRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	CrossEntropyInto(tensor.New(1, 3), tensor.New(1, 3), []int{3})
}

func TestOneHot(t *testing.T) {
	oh := OneHot([]int{2, 0}, 3)
	want := []float64{0, 0, 1, 1, 0, 0}
	for i, v := range oh.Data() {
		if v != want[i] {
			t.Fatalf("OneHot got %v", oh.Data())
		}
	}
}

func TestUniformLabels(t *testing.T) {
	u := UniformLabels(2, 5)
	for _, v := range u.Data() {
		if v != 0.2 {
			t.Fatalf("UniformLabels got %v", u.Data())
		}
	}
}

func TestNetworkCloneIndependence(t *testing.T) {
	r := rng.New(3)
	net := NewNetwork("n", 4, NewDense("fc", r, 4, 2))
	clone := net.Clone()
	clear(clone.Params()[0].Value.Data())
	if net.Params()[0].Value.Sum() == 0 {
		t.Fatal("clone shares weight storage with original")
	}
	x := tensor.Randn(r, 0, 1, 1, 4)
	a, b := tensor.New(1, 2), tensor.New(1, 2)
	net.Layers()[0].(*Dense).ForwardBatchRange(a, x, 0, 1, nil)
	clone.Layers()[0].(*Dense).ForwardBatchRange(b, x, 0, 1, nil)
	if a.Equal(b) {
		t.Fatal("zeroed clone still produces original outputs")
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	l := NewMaxPool2D("p", g)
	x := tensor.FromSlice([]float64{1, 7, 3, 5}, 1, 4)
	out := tensor.New(1, 1)
	l.ForwardBatchRange(out, x, 0, 1, nil)
	if out.Data()[0] != 7 {
		t.Fatalf("maxpool got %v", out.Data())
	}
	// the training pass routes the gradient to the window's winner
	tc := TrainCache{Ints: make([]int, 1)}
	l.TrainForwardRange(out, x, 0, 1, tc)
	grad := tensor.Full(99, 1, 4)
	l.TrainBackwardRange(grad, tensor.Full(1, 1, 1), x, out, 0, 1, tc)
	want := []float64{0, 1, 0, 0}
	for i, v := range grad.Data() {
		if v != want[i] {
			t.Fatalf("maxpool grad %v", grad.Data())
		}
	}
}

func TestAvgPoolKnownValues(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	l := NewAvgPool2D("p", g)
	x := tensor.FromSlice([]float64{1, 7, 3, 5}, 1, 4)
	out := tensor.New(1, 1)
	l.ForwardBatchRange(out, x, 0, 1, nil)
	if out.Data()[0] != 4 {
		t.Fatalf("avgpool got %v", out.Data())
	}
}

func TestConvKnownValues(t *testing.T) {
	// 1×1 kernel with weight 2, bias 1: output = 2x + 1
	r := rng.New(9)
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	l := NewConv2D("c", r, g, 1)
	l.Params()[0].Value.CopyFrom(tensor.Full(2, 1, 1))
	l.Params()[1].Value.CopyFrom(tensor.Full(1, 1))
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	out := tensor.New(1, 4)
	l.ForwardBatchRange(out, x, 0, 1, make([]float64, l.InferScratch()))
	want := []float64{3, 5, 7, 9}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("conv got %v", out.Data())
		}
	}
}

func TestOutputShapes(t *testing.T) {
	r := rng.New(10)
	g := tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv := NewConv2D("c", r, g, 16)
	if s := conv.OutputShape(nil); s[0] != 16 || s[1] != 32 || s[2] != 32 {
		t.Fatalf("conv OutputShape %v", s)
	}
	d := NewDense("d", r, 100, 10)
	if s := d.OutputShape(nil); s[0] != 10 {
		t.Fatalf("dense OutputShape %v", s)
	}
	f := NewFlatten("f")
	if s := f.OutputShape([]int{4, 5, 6}); s[0] != 120 {
		t.Fatalf("flatten OutputShape %v", s)
	}
}

func TestNumParams(t *testing.T) {
	r := rng.New(11)
	net := NewNetwork("n", 4, NewDense("fc1", r, 4, 3), NewReLU("r"), NewDense("fc2", r, 3, 2))
	want := 4*3 + 3 + 3*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams=%d, want %d", got, want)
	}
}

func TestForwardWrongWidthPanics(t *testing.T) {
	r := rng.New(13)
	l := NewDense("fc", r, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input width did not panic")
		}
	}()
	l.ForwardBatchRange(tensor.New(1, 2), tensor.New(1, 5), 0, 1, nil)
}

// volume is the element count of a per-sample shape.
func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}

// TestBatchInvariance: running samples through a layer stack one row range
// at a time must produce exactly the rows of the whole-batch pass — pooling,
// conv and dense kernels must not leak state across batch lanes.
func TestBatchInvariance(t *testing.T) {
	r := rng.New(20)
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	pool := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	layers := []Layer{
		NewConv2D("c1", r, g, 3),
		NewReLU("r1"),
		NewMaxPool2D("p1", pool),
		NewFlatten("f"),
		NewDense("fc", r, 3*16, 5),
	}
	batch := tensor.RandUniform(r, 0, 1, 4, 64)
	// run passes rows [lo, hi) of batch through every layer but the Flatten
	run := func(lo, hi int) *tensor.Tensor {
		cur, shape := batch, []int{64}
		for _, l := range layers {
			shape = l.OutputShape(shape)
			bl, ok := l.(BatchInfer)
			if !ok {
				continue
			}
			out := tensor.New(4, volume(shape))
			bl.ForwardBatchRange(out, cur, lo, hi, make([]float64, bl.InferScratch()))
			cur = out
		}
		return cur
	}
	whole := run(0, 4)
	for s := 0; s < 4; s++ {
		got := run(s, s+1).Data()[s*5 : (s+1)*5]
		requireSameBits(t, fmt.Sprintf("sample %d alone vs in the batch", s), got, whole.Data()[s*5:(s+1)*5])
	}
}

// TestSoftmaxPreservesOrdering: softmax must be strictly monotone in logits.
func TestSoftmaxPreservesOrdering(t *testing.T) {
	r := rng.New(22)
	logits := tensor.Randn(r, 0, 2, 1, 8)
	probs := Softmax(logits)
	ld, pd := logits.Data(), probs.Data()
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if (ld[i] > ld[j]) != (pd[i] > pd[j]) {
				t.Fatalf("softmax broke ordering between %d and %d", i, j)
			}
		}
	}
}
