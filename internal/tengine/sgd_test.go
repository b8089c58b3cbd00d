package tengine

import (
	"math"
	"testing"

	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// quadParam builds a parameter initialised at x0 whose loss is ½‖x‖²
// (gradient = x), the canonical convex test problem.
func quadParam(x0 []float64) *nn.Param {
	return &nn.Param{
		Name:  "x",
		Value: tensor.FromSlice(append([]float64(nil), x0...), len(x0)),
		Grad:  tensor.New(len(x0)),
	}
}

func setQuadGrad(p *nn.Param) {
	copy(p.Grad.Data(), p.Value.Data())
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := quadParam([]float64{5, -3, 2})
	sgd := NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	for i := 0; i < 200; i++ {
		setQuadGrad(p)
		sgd.Step()
	}
	if n := p.Value.L2Norm(); n > 1e-6 {
		t.Fatalf("SGD did not converge, ‖x‖=%v", n)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	p := quadParam([]float64{5, -3, 2})
	sgd := NewSGD([]*nn.Param{p}, 0.05, 0.9, 0)
	for i := 0; i < 300; i++ {
		setQuadGrad(p)
		sgd.Step()
	}
	if n := p.Value.L2Norm(); n > 1e-6 {
		t.Fatalf("momentum SGD did not converge, ‖x‖=%v", n)
	}
}

func TestSGDMomentumFasterThanVanillaOnIllConditioned(t *testing.T) {
	// loss = ½(100·x₀² + x₁²): badly conditioned; momentum should reach a
	// lower loss than vanilla SGD in the same iteration budget.
	run := func(momentum float64) float64 {
		p := quadParam([]float64{1, 1})
		sgd := NewSGD([]*nn.Param{p}, 0.009, momentum, 0)
		for i := 0; i < 120; i++ {
			g := p.Grad.Data()
			v := p.Value.Data()
			g[0], g[1] = 100*v[0], v[1]
			sgd.Step()
		}
		v := p.Value.Data()
		return 50*v[0]*v[0] + 0.5*v[1]*v[1]
	}
	if lm, lv := run(0.9), run(0); lm >= lv {
		t.Fatalf("momentum loss %v not better than vanilla %v", lm, lv)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := quadParam([]float64{1})
	sgd := NewSGD([]*nn.Param{p}, 0.1, 0, 0.5)
	// zero task gradient (a fresh Param's): only decay acts
	sgd.Step()
	if got := p.Value.Data()[0]; math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("decay step got %v, want 0.95", got)
	}
}

func TestSetLR(t *testing.T) {
	p := quadParam([]float64{1})
	sgd := NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	sgd.SetLR(0.5)
	if sgd.LR() != 0.5 {
		t.Fatalf("SetLR not applied: %v", sgd.LR())
	}
}

func TestStepDecaySchedule(t *testing.T) {
	sched := StepDecay(1.0, 0.5, 3)
	wants := []float64{1, 1, 1, 0.5, 0.5, 0.5, 0.25}
	for e, want := range wants {
		if got := sched(e); math.Abs(got-want) > 1e-12 {
			t.Fatalf("sched(%d)=%v, want %v", e, got, want)
		}
	}
}

func TestBadLRPanics(t *testing.T) {
	p := quadParam([]float64{1})
	for _, lr := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LR %v did not panic", lr)
				}
			}()
			NewSGD([]*nn.Param{p}, lr, 0, 0)
		}()
	}
}

func TestOptimizersTrainRealNetwork(t *testing.T) {
	// a 2D XOR-ish separation task: momentum SGD should fit it
	r := rng.New(1)
	x := tensor.FromSlice([]float64{
		0, 0, 0, 1, 1, 0, 1, 1,
	}, 4, 2)
	y := []int{0, 1, 1, 0}
	net := nn.NewNetwork("xor", 2,
		nn.NewDense("fc1", r, 2, 8), nn.NewReLU("r"), nn.NewDense("fc2", r, 8, 2))
	sgd := NewSGD(net.Params(), 0.3, 0.9, 0)
	eng := MustCompile(net, Options{Workers: 1})
	for i := 0; i < 800; i++ {
		if _, err := eng.ForwardBackward(x, y); err != nil {
			t.Fatal(err)
		}
		sgd.StepAndZero()
	}
	if acc := engine.MustCompile(net, engine.Options{}).Accuracy(x, y, 4); acc != 1 {
		t.Errorf("SGD failed to fit XOR, accuracy %v", acc)
	}
}
