package nn

import (
	"math"
	"testing"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// numericalGrad estimates d(loss)/d(x[i]) by central differences, where loss
// is recomputed from scratch through f.
func numericalGrad(f func() float64, x []float64, i int) float64 {
	const h = 1e-6
	orig := x[i]
	x[i] = orig + h
	lp := f()
	x[i] = orig - h
	lm := f()
	x[i] = orig
	return (lp - lm) / (2 * h)
}

// checkLayerGradients validates both parameter and input gradients of a
// layer against finite differences, using sum-of-squares of the output as
// the scalar loss (gradient = 2·output).
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	loss := func() float64 {
		out := layer.Forward(x)
		s := 0.0
		for _, v := range out.Data() {
			s += v * v
		}
		return s
	}
	// analytic gradients
	out := layer.Forward(x)
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	gradIn := layer.Backward(out.Scale(2))

	// input gradient spot checks (a spread of indices)
	xd := x.Data()
	for _, i := range spotIndices(len(xd)) {
		want := numericalGrad(loss, xd, i)
		got := gradIn.Data()[i]
		if math.Abs(want-got) > tol*(1+math.Abs(want)) {
			t.Errorf("%s input grad[%d]: analytic %v vs numeric %v", layer.Name(), i, got, want)
		}
	}
	// parameter gradient spot checks
	for _, p := range layer.Params() {
		pd := p.Value.Data()
		for _, i := range spotIndices(len(pd)) {
			want := numericalGrad(loss, pd, i)
			got := p.Grad.Data()[i]
			if math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Errorf("%s param %s grad[%d]: analytic %v vs numeric %v", layer.Name(), p.Name, i, got, want)
			}
		}
	}
}

// spotIndices picks a deterministic spread of indices to finite-difference.
func spotIndices(n int) []int {
	if n <= 8 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, 1, n / 5, n / 3, n / 2, 2 * n / 3, 4 * n / 5, n - 1}
}

func TestDenseGradients(t *testing.T) {
	r := rng.New(1)
	l := NewDense("fc", r, 6, 4)
	x := tensor.Randn(r, 0, 1, 3, 6)
	checkLayerGradients(t, l, x, 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	r := rng.New(2)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	l := NewConv2D("conv", r, g, 3)
	x := tensor.Randn(r, 0, 1, 2, 2*5*5)
	checkLayerGradients(t, l, x, 1e-5)
}

func TestConv2DStridedGradients(t *testing.T) {
	r := rng.New(3)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	l := NewConv2D("conv", r, g, 2)
	x := tensor.Randn(r, 0, 1, 2, 36)
	checkLayerGradients(t, l, x, 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	r := rng.New(4)
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	l := NewMaxPool2D("pool", g)
	// well-separated values so the argmax never flips under the h perturbation
	x := tensor.RandUniform(r, 0, 100, 2, 32)
	checkLayerGradients(t, l, x, 1e-4)
}

func TestAvgPoolGradients(t *testing.T) {
	r := rng.New(5)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	l := NewAvgPool2D("pool", g)
	x := tensor.Randn(r, 0, 1, 2, 16)
	checkLayerGradients(t, l, x, 1e-5)
}

func TestActivationGradients(t *testing.T) {
	r := rng.New(6)
	// ReLU: keep values away from the kink
	x := tensor.RandUniform(r, 0.5, 2, 2, 10)
	neg := tensor.RandUniform(r, -2, -0.5, 2, 10)
	checkLayerGradients(t, NewReLU("relu"), x, 1e-5)
	checkLayerGradients(t, NewReLU("relu"), neg, 1e-5)
}

func TestNetworkInputGradient(t *testing.T) {
	// end-to-end input gradient through conv→relu→pool→dense vs numeric
	r := rng.New(7)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	pool := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	net := NewNetwork("tiny", 36,
		NewConv2D("c1", r, g, 2),
		NewReLU("r1"),
		NewMaxPool2D("p1", pool),
		NewDense("fc", r, 8, 3),
	)
	x := tensor.RandUniform(r, 0.1, 0.9, 1, 36)
	labels := []int{1}

	loss := func() float64 {
		l, _ := CrossEntropy(net.Forward(x), labels)
		return l
	}
	logits := net.Forward(x)
	_, grad := CrossEntropy(logits, labels)
	net.ZeroGrad()
	gin := net.Backward(grad)
	xd := x.Data()
	for _, i := range spotIndices(len(xd)) {
		want := numericalGrad(loss, xd, i)
		got := gin.Data()[i]
		if math.Abs(want-got) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("network input grad[%d]: analytic %v vs numeric %v", i, got, want)
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	r := rng.New(8)
	logits := tensor.Randn(r, 0, 1, 2, 5)
	labels := []int{3, 0}
	loss := func() float64 {
		l, _ := CrossEntropy(logits.Clone(), labels)
		return l
	}
	_, grad := CrossEntropy(logits.Clone(), labels)
	ld := logits.Data()
	for _, i := range spotIndices(len(ld)) {
		want := numericalGrad(loss, ld, i)
		if got := grad.Data()[i]; math.Abs(want-got) > 1e-6 {
			t.Errorf("CE grad[%d]: analytic %v vs numeric %v", i, got, want)
		}
	}
}

func TestSoftCrossEntropyGradient(t *testing.T) {
	r := rng.New(9)
	logits := tensor.Randn(r, 0, 1, 2, 4)
	target := Softmax(tensor.Randn(r, 0, 1, 2, 4))
	loss := func() float64 {
		l, _ := SoftCrossEntropy(logits.Clone(), target)
		return l
	}
	_, grad := SoftCrossEntropy(logits.Clone(), target)
	ld := logits.Data()
	for _, i := range spotIndices(len(ld)) {
		want := numericalGrad(loss, ld, i)
		if got := grad.Data()[i]; math.Abs(want-got) > 1e-6 {
			t.Errorf("softCE grad[%d]: analytic %v vs numeric %v", i, got, want)
		}
	}
}
