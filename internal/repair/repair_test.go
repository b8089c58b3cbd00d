package repair

import (
	"context"
	"errors"
	"strings"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
)

// TestEscalationApplicability pins which fixed-escalation rung applies to
// which confirmed status: an episode starts at the cheapest applicable rung
// and escalates through the ones above it, so this matrix is the severity
// plan — reprogram for Degraded, retrain from Impaired, replace for
// Critical — and nothing applies to a Healthy device.
func TestEscalationApplicability(t *testing.T) {
	none := func() (*nn.Network, error) { return nil, nil }
	rungs := Escalation(none, none, none)
	names := []string{"reprogram", "retrain", "replace"}
	want := map[monitor.Status][3]bool{
		monitor.Healthy:  {false, false, false},
		monitor.Degraded: {true, true, true},
		monitor.Impaired: {false, true, true},
		monitor.Critical: {false, false, true},
	}
	if len(rungs) != len(names) {
		t.Fatalf("escalation has %d rungs, want %d", len(rungs), len(names))
	}
	for i, r := range rungs {
		if r.Name != names[i] || r.Cost != 1 {
			t.Fatalf("rung %d is %s/%d, want %s/1", i, r.Name, r.Cost, names[i])
		}
	}
	for status := monitor.Healthy; status <= monitor.Critical; status++ {
		for i, r := range rungs {
			if got := r.When(Diagnosis{Status: status}); got != want[status][i] {
				t.Errorf("%s applicable on %s = %v, want %v", r.Name, status, got, want[status][i])
			}
		}
	}
}

// TestEscalationApplyWrapsUntypedErrors: a mechanism's network comes back as
// Report.NewRef, its untyped error is wrapped in *Error naming the rung, and
// a typed one passes through unwrapped.
func TestEscalationApplyWrapsUntypedErrors(t *testing.T) {
	ref := models.MLP(rng.New(1), 4, nil, 2)
	typed := &DiagnosisError{Reason: "tolerance"}
	rungs := Escalation(
		func() (*nn.Network, error) { return nil, errors.New("actuator offline") },
		func() (*nn.Network, error) { return ref, nil },
		func() (*nn.Network, error) { return nil, typed },
	)
	_, err := rungs[0].Apply(context.Background(), Diagnosis{})
	var se *Error
	if !errors.As(err, &se) || se.Strategy != "reprogram" || se.Op != "apply" {
		t.Fatalf("untyped reprogram error not wrapped: %v", err)
	}
	if rep, err := rungs[1].Apply(context.Background(), Diagnosis{}); err != nil || rep.NewRef != ref {
		t.Fatalf("retrain rung: NewRef %p, err %v; want %p, nil", rep.NewRef, err, ref)
	}
	if _, err := rungs[2].Apply(context.Background(), Diagnosis{}); err != typed {
		t.Fatalf("typed replace error rewrapped: %v", err)
	}
}

func idealConfig() reram.Config {
	cfg := reram.DefaultConfig()
	cfg.TileRows, cfg.TileCols = 32, 32
	cfg.DACBits, cfg.ADCBits = 0, 0
	cfg.Device.ProgramSigma = 0
	cfg.Device.DriftRate = 0
	cfg.Device.DriftJitter = 0
	cfg.Device.SoftErrorRate = 0
	return cfg
}

// stuckCells counts the positions m marks stuck.
func stuckCells(m StuckMask) int {
	n := 0
	for _, mask := range m {
		for _, s := range mask {
			if s {
				n++
			}
		}
	}
	return n
}

// mustDiagnose fails the test on a diagnosis error — the well-formed-input
// path every existing test exercises.
func mustDiagnose(t *testing.T, accel *reram.Accelerator, net *nn.Network, tol float64) StuckMask {
	t.Helper()
	mask, err := DiagnoseStuck(accel, net, tol)
	if err != nil {
		t.Fatalf("DiagnoseStuck: %v", err)
	}
	return mask
}

func TestDiagnoseStuckFindsInjectedFaults(t *testing.T) {
	net := models.MLP(rng.New(1), 16, []int{12}, 4)
	accel := reram.NewAccelerator(net, idealConfig(), 7)
	// healthy device: nothing stuck
	mask := mustDiagnose(t, accel, net, 0.25)
	if n := stuckCells(mask); n != 0 {
		t.Fatalf("healthy accelerator diagnosed %d stuck cells", n)
	}
	// inject a visible fraction of stuck cells
	accel.InjectStuckAt(0.05, 0.05)
	mask = mustDiagnose(t, accel, net, 0.25)
	if n := stuckCells(mask); n == 0 {
		t.Fatal("diagnosis found no stuck cells after injection")
	}
	// diagnosis must cover every parameter name of the network
	for _, p := range net.Params() {
		if _, ok := mask[p.Name]; !ok {
			t.Fatalf("mask missing parameter %s", p.Name)
		}
	}
}

func TestDiagnoseStuckSurvivesProgrammingNoise(t *testing.T) {
	net := models.MLP(rng.New(2), 16, []int{12}, 4)
	cfg := idealConfig()
	cfg.Device.ProgramSigma = 0.03 // realistic write noise
	accel := reram.NewAccelerator(net, cfg, 8)
	mask := mustDiagnose(t, accel, net, 0.35)
	// write noise must not masquerade as stuck cells (a few strays allowed)
	total := 0
	for _, m := range mask {
		total += len(m)
	}
	if frac := float64(stuckCells(mask)) / float64(total); frac > 0.02 {
		t.Fatalf("noise misdiagnosed as %.1f%% stuck cells", 100*frac)
	}
}

// trainToy fits a small classifier the retraining tests can damage.
func trainToy(t *testing.T) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	train := dataset.SynthDigits(60, dataset.DefaultDigitsConfig(500))
	net := models.MLP(rng.New(3), train.SampleDim(), []int{32}, 10)
	if err := models.Train(context.Background(), net, train, models.TrainConfig{Epochs: 4, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	return net, train
}

// accuracy is net's top-1 accuracy on d, through a compiled inference plan.
func accuracy(net *nn.Network, d *dataset.Dataset) float64 {
	return engine.MustCompile(net, engine.Options{}).Accuracy(d.X, d.Y, 64)
}

// mustRetrain runs RetrainAround under a background context, fails t on
// error, and returns net's accuracy on train after the retrain.
func mustRetrain(t *testing.T, net *nn.Network, stuck StuckMask, train *dataset.Dataset, cfg models.TrainConfig) float64 {
	t.Helper()
	if err := RetrainAround(context.Background(), net, stuck, train, cfg); err != nil {
		t.Fatal(err)
	}
	return accuracy(net, train)
}

func TestRetrainAroundRecoversAccuracy(t *testing.T) {
	net, train := trainToy(t)
	clean := accuracy(net, train)
	if clean < 0.9 {
		t.Fatalf("toy model failed to train: %.2f", clean)
	}

	// damage: zero out 20% of the first layer's weights (SA0-style) and
	// freeze them
	stuck := make(StuckMask)
	r := rng.New(5)
	for _, p := range net.Params() {
		mask := make([]bool, p.Value.Len())
		if strings.HasSuffix(p.Name, ".weight") {
			d := p.Value.Data()
			for j := range d {
				if r.Bernoulli(0.2) {
					d[j] = 0
					mask[j] = true
				}
			}
		}
		stuck[p.Name] = mask
	}
	damaged := accuracy(net, train)
	if damaged >= clean {
		t.Fatalf("damage did not reduce accuracy: %.2f vs %.2f", damaged, clean)
	}

	cfg := DefaultRetrainConfig()
	cfg.Epochs = 3
	repaired := mustRetrain(t, net, stuck, train, cfg)
	if repaired <= damaged+0.01 {
		t.Fatalf("retraining did not recover accuracy: %.2f (damaged %.2f)", repaired, damaged)
	}

	// frozen positions must still hold their fault values exactly
	for _, p := range net.Params() {
		mask := stuck[p.Name]
		d := p.Value.Data()
		for j, s := range mask {
			if s && d[j] != 0 {
				t.Fatalf("retraining moved frozen weight %s[%d] to %v", p.Name, j, d[j])
			}
		}
	}
}

func TestRetrainWithEmptyMaskIsOrdinaryFineTune(t *testing.T) {
	net, train := trainToy(t)
	before := accuracy(net, train)
	cfg := DefaultRetrainConfig()
	cfg.Epochs = 1
	after := mustRetrain(t, net, StuckMask{}, train, cfg)
	if after < before-0.05 {
		t.Fatalf("fine-tune with empty mask degraded accuracy %.2f→%.2f", before, after)
	}
}
