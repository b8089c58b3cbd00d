package repair

import (
	"context"
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

func TestPlanForSeverityLadder(t *testing.T) {
	cases := map[monitor.Status]Action{
		monitor.Healthy:  NoAction,
		monitor.Degraded: Reprogram,
		monitor.Impaired: Retrain,
		monitor.Critical: Replace,
	}
	for status, want := range cases {
		if got := PlanFor(status); got != want {
			t.Errorf("PlanFor(%s)=%s, want %s", status, got, want)
		}
	}
}

func TestActionStrings(t *testing.T) {
	for a, want := range map[Action]string{
		NoAction: "none", Reprogram: "reprogram", Retrain: "retrain", Replace: "replace",
	} {
		if a.String() != want {
			t.Errorf("Action(%d).String()=%q", int(a), a.String())
		}
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
	if n := mask.Count(); n != 0 {
		t.Fatalf("healthy accelerator diagnosed %d stuck cells", n)
	}
	// inject a visible fraction of stuck cells
	accel.InjectStuckAt(0.05, 0.05)
	mask = mustDiagnose(t, accel, net, 0.25)
	if n := mask.Count(); n == 0 {
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
	if frac := float64(mask.Count()) / float64(total); frac > 0.02 {
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

// mustRetrain runs RetrainAround under a background context, measuring
// accuracy on train, and fails t on error.
func mustRetrain(t *testing.T, net *nn.Network, stuck StuckMask, train *dataset.Dataset, cfg models.TrainConfig) float64 {
	t.Helper()
	acc, err := RetrainAround(context.Background(), net, stuck, train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return acc
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

func TestStuckMaskCount(t *testing.T) {
	m := StuckMask{
		"a": {true, false, true},
		"b": {false},
	}
	if m.Count() != 2 {
		t.Fatalf("Count=%d, want 2", m.Count())
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Action: Retrain, Stuck: 12, AccBefore: 0.7, AccAfter: 0.95}
	s := rep.String()
	for _, want := range []string{"retrain", "stuck=12", "70.0%", "95.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}
