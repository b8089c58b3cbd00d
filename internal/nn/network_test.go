package nn_test

import (
	"math"
	"testing"

	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// identity is a 3-class network whose logits are its input: one dense layer
// with the identity weight matrix and a zero bias.
func identity() *nn.Network {
	fc := nn.NewDense("fc", rng.New(1), 3, 3)
	w := fc.Params()[0].Value
	clear(w.Data())
	for i := 0; i < 3; i++ {
		w.Data()[i*3+i] = 1
	}
	return nn.NewNetwork("id", 3, fc)
}

// TestNetworkPredictMatchesArgmax: a network's prediction, through its
// inference plan, is the first maximum of its logits — ties go to the lower
// class, and a NaN row, where no logit beats −Inf, predicts class 0.
func TestNetworkPredictMatchesArgmax(t *testing.T) {
	r := rng.New(4)
	net := nn.NewNetwork("n", 6, nn.NewDense("fc", r, 6, 3))
	eng := engine.MustCompile(net, engine.Options{})
	x := tensor.Randn(r, 0, 1, 5, 6)
	logits, err := eng.ForwardBatch(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	logits = logits.Clone()
	preds := eng.Predict(x)
	for s := 0; s < 5; s++ {
		row := tensor.FromSlice(logits.Data()[s*3:(s+1)*3], 3)
		if preds[s] != row.ArgMax() {
			t.Fatalf("Predict[%d]=%d, argmax=%d", s, preds[s], row.ArgMax())
		}
	}

	nan := math.NaN()
	rows := tensor.FromSlice([]float64{
		0.5, 0.5, 0.1, // tie: the first maximum
		0.1, 0.7, 0.7, // tie behind a smaller first logit
		nan, 0.2, 0.9, // NaN makes every logit of the row NaN
		-1, -2, -0.5,
	}, 4, 3)
	want := []int{0, 1, 0, 2}
	got := engine.MustCompile(identity(), engine.Options{}).Predict(rows)
	for s, p := range got {
		if p != want[s] {
			t.Fatalf("Predict = %v, want %v", got, want)
		}
	}
	if p := eng.Predict(tensor.New(0, 6)); len(p) != 0 {
		t.Fatalf("empty batch predicted %v", p)
	}
}

// TestNetworkAccuracy: top-1 accuracy through the inference plan, batched —
// a ragged last batch counts like any other, and an empty set scores 0.
func TestNetworkAccuracy(t *testing.T) {
	eng := engine.MustCompile(identity(), engine.Options{})
	x := tensor.FromSlice([]float64{
		1, 0, 0,
		0, 0, 1,
		0, 1, 0,
	}, 3, 3)
	for _, batch := range []int{1, 2, 3, 64} {
		if acc := eng.Accuracy(x, []int{0, 2, 1}, batch); acc != 1 {
			t.Fatalf("batch %d: accuracy %v, want 1", batch, acc)
		}
		// the one miss is the last row: a ragged last batch at sizes 2 and 64
		if acc := eng.Accuracy(x, []int{0, 2, 0}, batch); math.Abs(acc-2.0/3) > 1e-12 {
			t.Fatalf("batch %d: accuracy %v, want 2/3", batch, acc)
		}
	}
	if acc := eng.Accuracy(tensor.New(0, 3), nil, 2); acc != 0 {
		t.Fatalf("empty set accuracy %v, want 0", acc)
	}
}

// TestFlattenBackpropStillTrains: the plans elide Flatten, so a
// conv→flatten→dense stack must still train — gradients reach the layer
// below the Flatten and steps reduce the loss.
func TestFlattenBackpropStillTrains(t *testing.T) {
	r := rng.New(2)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	net := nn.NewNetwork("flat", 36,
		nn.NewConv2D("c", r, g, 2),
		nn.NewReLU("r1"),
		nn.NewFlatten("f"),
		nn.NewDense("fc", r, 2*4*4, 3),
	)
	x := tensor.RandUniform(r, 0, 1, 8, 36)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	eng := tengine.MustCompile(net, tengine.Options{Workers: 1})

	step := func() float64 {
		loss, err := eng.ForwardBackward(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		if g := net.Layers()[0].Params()[0].Grad; g.Min() == 0 && g.Max() == 0 {
			t.Fatal("no gradient reached the layer below Flatten")
		}
		for _, p := range net.Params() {
			v := p.Value.Data()
			for i, g := range p.Grad.Data() {
				v[i] += -0.1 * g
			}
		}
		return loss
	}
	first := step()
	var last float64
	for i := 0; i < 20; i++ {
		last = step()
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease through Flatten: first=%v last=%v", first, last)
	}
}
