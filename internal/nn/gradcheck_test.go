package nn_test

import (
	"math"
	"testing"

	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
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

// checkGradients validates the training plan's parameter and input
// gradients of net against finite differences of its own loss, once with
// the mean cross-entropy against hard labels (ForwardBackward) and once with
// the soft cross-entropy against a random target distribution
// (ForwardBackwardSoft). The network's output is the logit vector, however
// wide the layer under test makes it.
func checkGradients(t *testing.T, net *nn.Network, x *tensor.Tensor, tol float64) {
	t.Helper()
	eng := tengine.MustCompile(net, tengine.Options{Workers: 1, InputGrad: true})
	n, k := x.Dim(0), volume(net)
	labels := make([]int, n)
	for s := range labels {
		labels[s] = (3*s + 1) % k
	}
	target := tensor.RandUniform(rng.New(77), 0.1, 1, n, k)
	td := target.Data()
	for s := 0; s < n; s++ {
		row := td[s*k : (s+1)*k]
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		for j := range row {
			row[j] /= sum
		}
	}
	for _, soft := range []bool{false, true} {
		step := func() float64 {
			var loss float64
			var err error
			if soft {
				loss, err = eng.ForwardBackwardSoft(x, target)
			} else {
				loss, err = eng.ForwardBackward(x, labels)
			}
			if err != nil {
				t.Fatal(err)
			}
			return loss
		}
		// analytic gradients, copied out before the numeric passes overwrite
		// them
		step()
		gradIn := eng.InputGrad().Clone()
		paramGrads := make([]*tensor.Tensor, len(net.Params()))
		for i, p := range net.Params() {
			paramGrads[i] = p.Grad.Clone()
		}
		what := "hard CE"
		if soft {
			what = "soft CE"
		}
		xd := x.Data()
		for _, i := range spotIndices(len(xd)) {
			want := numericalGrad(step, xd, i)
			if got := gradIn.Data()[i]; math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Errorf("%s %s input grad[%d]: analytic %v vs numeric %v", net.Name(), what, i, got, want)
			}
		}
		for pi, p := range net.Params() {
			pd := p.Value.Data()
			for _, i := range spotIndices(len(pd)) {
				want := numericalGrad(step, pd, i)
				if got := paramGrads[pi].Data()[i]; math.Abs(want-got) > tol*(1+math.Abs(want)) {
					t.Errorf("%s %s param %s grad[%d]: analytic %v vs numeric %v", net.Name(), what, p.Name, i, got, want)
				}
			}
		}
	}
}

// volume is the network's per-sample output width.
func volume(net *nn.Network) int {
	shape := []int{net.InDim()}
	for _, l := range net.Layers() {
		shape = l.OutputShape(shape)
	}
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
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
	net := nn.NewNetwork("dense", 6, nn.NewDense("fc", r, 6, 4))
	checkGradients(t, net, tensor.Randn(r, 0, 1, 3, 6), 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	r := rng.New(2)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	net := nn.NewNetwork("conv", 2*5*5, nn.NewConv2D("conv", r, g, 3))
	checkGradients(t, net, tensor.Randn(r, 0, 1, 2, 2*5*5), 1e-5)
}

func TestConv2DStridedGradients(t *testing.T) {
	r := rng.New(3)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	net := nn.NewNetwork("strided", 36, nn.NewConv2D("conv", r, g, 2))
	checkGradients(t, net, tensor.Randn(r, 0, 1, 2, 36), 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	r := rng.New(4)
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	net := nn.NewNetwork("maxpool", 32, nn.NewMaxPool2D("pool", g))
	// continuous values: no window's argmax flips under the h perturbation
	checkGradients(t, net, tensor.RandUniform(r, 0, 3, 2, 32), 1e-4)
}

func TestAvgPoolGradients(t *testing.T) {
	r := rng.New(5)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	net := nn.NewNetwork("avgpool", 16, nn.NewAvgPool2D("pool", g))
	checkGradients(t, net, tensor.Randn(r, 0, 1, 2, 16), 1e-5)
}

func TestActivationGradients(t *testing.T) {
	r := rng.New(6)
	// ReLU: keep values away from the kink
	net := nn.NewNetwork("relu", 10, nn.NewReLU("relu"))
	checkGradients(t, net, tensor.RandUniform(r, 0.5, 2, 2, 10), 1e-5)
	checkGradients(t, net, tensor.RandUniform(r, -2, -0.5, 2, 10), 1e-5)
}

func TestNetworkInputGradient(t *testing.T) {
	// end-to-end gradients through conv→relu→pool→flatten→dense vs numeric
	r := rng.New(7)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	pool := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	net := nn.NewNetwork("tiny", 36,
		nn.NewConv2D("c1", r, g, 2),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", pool),
		nn.NewFlatten("f"),
		nn.NewDense("fc", r, 8, 3),
	)
	checkGradients(t, net, tensor.RandUniform(r, 0.1, 0.9, 2, 36), 1e-5)
}

// checkLossGradient holds a loss kernel's logit gradient to finite
// differences of the loss it returns.
func checkLossGradient(t *testing.T, what string, logits *tensor.Tensor, loss func(grad, logits *tensor.Tensor) float64) {
	t.Helper()
	grad := tensor.New(logits.Shape()...)
	loss(grad, logits)
	f := func() float64 { return loss(tensor.New(logits.Shape()...), logits) }
	ld := logits.Data()
	for _, i := range spotIndices(len(ld)) {
		want := numericalGrad(f, ld, i)
		if got := grad.Data()[i]; math.Abs(want-got) > 1e-6 {
			t.Errorf("%s grad[%d]: analytic %v vs numeric %v", what, i, got, want)
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	logits := tensor.Randn(rng.New(8), 0, 1, 2, 5)
	checkLossGradient(t, "CE", logits, func(grad, logits *tensor.Tensor) float64 {
		return nn.CrossEntropyInto(grad, logits, []int{3, 0})
	})
}

func TestSoftCrossEntropyGradient(t *testing.T) {
	r := rng.New(9)
	logits := tensor.Randn(r, 0, 1, 2, 4)
	target := nn.Softmax(tensor.Randn(r, 0, 1, 2, 4))
	checkLossGradient(t, "softCE", logits, func(grad, logits *tensor.Tensor) float64 {
		return nn.SoftCrossEntropyInto(grad, logits, target)
	})
}
