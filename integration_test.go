package reramtest_test

import (
	"context"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/testgen"
)

// trainPipelineModel fits a small classifier used by all integration tests
// (train once, reuse).
var pipelineModel *nn.Network
var pipelineData *dataset.Dataset

func pipeline(t *testing.T) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	if pipelineModel != nil {
		return pipelineModel, pipelineData
	}
	train := dataset.SynthDigits(900, dataset.DefaultDigitsConfig(800))
	net := models.MLP(rng.New(901), train.SampleDim(), []int{48}, 10)
	sgd := tengine.NewSGD(net.Params(), 0.05, 0.9, 0)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: 32})
	r := rng.New(902)
	it := train.BatchIterator(32)
	for epoch := 0; epoch < 5; epoch++ {
		it.Reset(r)
		for x, y, ok := it.Next(); ok; x, y, ok = it.Next() {
			eng.ForwardBackward(x, y) // batches are never empty
			sgd.StepAndZero()
		}
	}
	if acc := accuracy(net, train); acc < 0.9 {
		t.Fatalf("pipeline model failed to train: %.2f", acc)
	}
	pipelineModel, pipelineData = net, train
	return net, train
}

// accuracy is net's top-1 accuracy on d, through a compiled inference plan.
func accuracy(net *nn.Network, d *dataset.Dataset) float64 {
	return engine.MustCompile(net, engine.Options{}).Accuracy(d.X, d.Y, 64)
}

// TestEndToEndDetectionPipeline exercises the full paper flow on a live
// model: generate all three pattern families, capture goldens, inject
// errors of increasing severity, and verify the paper's qualitative claims.
func TestEndToEndDetectionPipeline(t *testing.T) {
	net, data := pipeline(t)

	ref := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.3}, 1)
	otp, _ := testgen.GenerateOTP(net, ref, 10, testgen.DefaultOTPConfig(), rng.New(2))
	ctp := testgen.SelectCTP(net, data, 30)
	aet := testgen.GenerateAET(net, data, 30, testgen.DefaultAETConfig(), rng.New(3))
	plain := testgen.SelectPlain(data, 30)

	goldens := map[string]*monitor.Golden{
		"otp": monitor.Capture(net, otp), "ctp": monitor.Capture(net, ctp),
		"aet": monitor.Capture(net, aet), "plain": monitor.Capture(net, plain),
	}

	// severity must increase every method's distance monotonically (on
	// average over a few fault models)
	for name, g := range goldens {
		prev := -1.0
		for _, sigma := range []float64{0.1, 0.3, 0.6} {
			sum := 0.0
			const k = 5
			for i := int64(0); i < k; i++ {
				fm := faults.MakeFaulty(net, faults.LogNormal{Sigma: sigma}, 100+i)
				sum += g.Observe(fm).AllDist
			}
			d := sum / k
			if d <= prev {
				t.Errorf("%s distance not increasing: %.4f after %.4f", name, d, prev)
			}
			prev = d
		}
	}

	// the paper's Fig. 8 point: special patterns out-signal plain images
	fm := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.3}, 7)
	plainDist := goldens["plain"].Observe(fm).AllDist
	for _, name := range []string{"otp", "ctp"} {
		if d := goldens[name].Observe(fm).AllDist; d <= plainDist {
			t.Errorf("%s distance %.4f not above plain-image distance %.4f", name, d, plainDist)
		}
	}
}

// TestEndToEndHardwarePipeline runs the device-level story: map the model
// onto crossbars, verify weight-level and device-level views agree, age the
// device, detect, repair, verify recovery.
func TestEndToEndHardwarePipeline(t *testing.T) {
	net, data := pipeline(t)
	eval := data.Head(200)

	cfg := reram.DefaultConfig()
	cfg.DACBits, cfg.ADCBits = 0, 0
	cfg.Device.ProgramSigma = 0
	cfg.Device.DriftRate = 0.001
	cfg.Device.DriftJitter = 0
	cfg.Device.SoftErrorRate = 0
	accel := reram.NewAccelerator(net, cfg, 42)

	// device view == digital view at commissioning
	d0 := accuracy(net, eval)
	a0 := accuracy(accel.ReadoutNetwork(), eval)
	if d0 != a0 {
		t.Fatalf("commissioned accelerator accuracy %.3f != digital %.3f", a0, d0)
	}

	// age and damage
	accel.AdvanceTime(800)
	accel.InjectStuckAt(0.01, 0.01)
	damaged := accuracy(accel.ReadoutNetwork(), eval)
	if damaged >= d0 {
		t.Fatalf("aging did not damage accuracy: %.3f vs %.3f", damaged, d0)
	}

	// the monitor sees it
	ctp := testgen.SelectCTP(net, data, 30)
	mon := monitor.New(net, ctp, nil)
	rep := mon.Check(monitor.NetworkInfer(accel.ReadoutNetwork()))
	if rep.Status == monitor.Healthy {
		t.Fatalf("monitor missed damage (dist %.4f, accuracy %.3f→%.3f)", rep.AllDist, d0, damaged)
	}

	// repair: diagnose + retrain + redeploy
	stuck, err := repair.DiagnoseStuck(accel, net, 0.3)
	if err != nil {
		t.Fatalf("DiagnoseStuck: %v", err)
	}
	found := 0
	for _, mask := range stuck {
		for _, s := range mask {
			if s {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("diagnosis found no stuck cells after injection")
	}
	faulty := accel.ReadoutNetwork()
	rcfg := repair.DefaultRetrainConfig()
	rcfg.Epochs = 2
	if err := repair.RetrainAround(context.Background(), faulty, stuck, data, rcfg); err != nil {
		t.Fatalf("RetrainAround: %v", err)
	}
	accel.ProgramNetwork(faulty)
	repaired := accuracy(accel.ReadoutNetwork(), eval)
	if repaired <= damaged {
		t.Fatalf("repair did not recover accuracy: %.3f (damaged %.3f)", repaired, damaged)
	}
}
