package reram_test

import (
	"math"
	"testing"

	"reramtest/internal/engine"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// The tests in this file compare the accelerator against digital inference,
// which runs through an engine plan; engine imports reram, so they live in
// the external test package.

// idealConfig is 64×64 tiles of ideal converters and cells: no programming
// noise, drift or soft errors.
func idealConfig() reram.Config {
	p := reram.DefaultDeviceParams()
	p.ProgramSigma, p.DriftRate, p.DriftJitter, p.SoftErrorRate = 0, 0, 0, 0
	return reram.Config{TileRows: 64, TileCols: 64, Device: p}
}

// logits runs x through a fresh inference plan of net.
func logits(t *testing.T, net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := engine.MustCompile(net, engine.Options{}).ForwardBatch(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	m := 0.0
	for i, v := range a.Data() {
		m = math.Max(m, math.Abs(v-b.Data()[i]))
	}
	return m
}

func TestAcceleratorReadoutMatchesDigital(t *testing.T) {
	net := models.MLP(rng.New(1), 12, []int{10}, 4)
	a := reram.NewAccelerator(net, idealConfig(), 7)
	x := tensor.RandUniform(rng.New(2), 0, 1, 3, 12)
	want := logits(t, net, x)
	got := logits(t, a.ReadoutNetwork(), x)
	if maxAbsDiff(got, want) > 1e-9 {
		t.Fatal("ideal accelerator readout differs from digital network")
	}
}

func TestAcceleratorInferMatchesDigitalIdeal(t *testing.T) {
	net := models.MLP(rng.New(3), 12, []int{10}, 4)
	a := reram.NewAccelerator(net, idealConfig(), 8)
	x := tensor.RandUniform(rng.New(4), 0, 1, 2, 12)
	want := logits(t, net, x)
	got := a.Infer(x)
	if maxAbsDiff(got, want) > 1e-9 {
		t.Fatalf("ideal analog inference differs: %v vs %v", got.Data(), want.Data())
	}
}

func TestAcceleratorInferConvNetwork(t *testing.T) {
	net := models.LeNet5(rng.New(5))
	a := reram.NewAccelerator(net, idealConfig(), 9)
	x := tensor.RandUniform(rng.New(6), 0, 1, 1, 784)
	want := logits(t, net, x)
	got := a.Infer(x)
	if maxAbsDiff(got, want) > 1e-6 {
		t.Fatalf("conv analog inference max err %v", maxAbsDiff(got, want))
	}
}

func TestAcceleratorQuantizedInferClose(t *testing.T) {
	net := models.MLP(rng.New(7), 12, []int{10}, 4)
	cfg := idealConfig()
	cfg.DACBits, cfg.ADCBits = 8, 10
	a := reram.NewAccelerator(net, cfg, 10)
	x := tensor.RandUniform(rng.New(8), 0, 1, 2, 12)
	want := logits(t, net, x)
	got := a.Infer(x)
	// quantization error must be small relative to the logit scale
	scale := math.Max(1, want.Clone().Apply(math.Abs).Max())
	if maxAbsDiff(got, want) > 0.1*scale {
		t.Fatalf("quantized inference error %v exceeds 10%% of scale %v", maxAbsDiff(got, want), scale)
	}
}

func TestAcceleratorDriftDegradesThenReprogramRecovers(t *testing.T) {
	net := models.MLP(rng.New(10), 10, []int{8}, 3)
	cfg := idealConfig()
	cfg.Device.DriftRate = 0.005
	a := reram.NewAccelerator(net, cfg, 12)
	x := tensor.RandUniform(rng.New(11), 0, 1, 4, 10)
	before := logits(t, a.ReadoutNetwork(), x)
	a.AdvanceTime(500)
	if a.Hours() != 500 {
		t.Fatalf("Hours=%v", a.Hours())
	}
	drifted := logits(t, a.ReadoutNetwork(), x)
	if maxAbsDiff(drifted, before) <= 1e-9 {
		t.Fatal("drift had no effect on outputs")
	}
	a.Reprogram()
	restored := logits(t, a.ReadoutNetwork(), x)
	if maxAbsDiff(restored, before) > 1e-9 {
		t.Fatal("reprogramming did not restore outputs")
	}
}

func TestAcceleratorStuckAtDegrades(t *testing.T) {
	net := models.MLP(rng.New(12), 10, []int{8}, 3)
	a := reram.NewAccelerator(net, idealConfig(), 13)
	x := tensor.RandUniform(rng.New(13), 0, 1, 4, 10)
	before := logits(t, a.ReadoutNetwork(), x)
	a.InjectStuckAt(0.05, 0.05)
	after := logits(t, a.ReadoutNetwork(), x)
	if maxAbsDiff(after, before) <= 1e-9 {
		t.Fatal("stuck-at faults had no effect")
	}
}

func TestProgramNetworkRedeploysWeights(t *testing.T) {
	net := models.MLP(rng.New(20), 10, []int{8}, 3)
	a := reram.NewAccelerator(net, idealConfig(), 21)
	x := tensor.RandUniform(rng.New(22), 0, 1, 2, 10)

	// retrain stand-in: shift every weight, then redeploy
	retrained := net.Clone()
	for _, p := range retrained.Params() {
		p.Value.Apply(func(v float64) float64 { return v * 0.5 })
	}
	a.ProgramNetwork(retrained)
	want := logits(t, retrained, x)
	got := logits(t, a.ReadoutNetwork(), x)
	if maxAbsDiff(got, want) > 1e-9 {
		t.Fatal("redeployed accelerator does not match retrained network")
	}
	// Reprogram must now restore the NEW weights, not the originals
	a.AdvanceTime(0)
	a.Reprogram()
	got = logits(t, a.ReadoutNetwork(), x)
	if maxAbsDiff(got, want) > 1e-9 {
		t.Fatal("reprogram after redeploy reverted to stale targets")
	}
}
