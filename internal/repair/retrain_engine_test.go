package repair

import (
	"math"
	"strings"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/rng"
)

// legacyRetrain replicates the pre-engine RetrainAround loop verbatim:
// slice-of-batches iteration, layer-wise Forward/Backward, freeze, unfused
// Step, restore. Reference arm for the engine-migration bit-identity gate.
func legacyRetrain(net *nn.Network, stuck StuckMask, train *dataset.Dataset, cfg RetrainConfig) float64 {
	r := rng.New(cfg.Seed)
	sgd := opt.NewSGD(net.Params(), cfg.LR, cfg.Momentum, 0)
	restoreStuck := SnapshotStuck(net, stuck)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, b := range train.Batches(cfg.BatchSize, r) {
			logits := net.Forward(b.X)
			_, grad := nn.CrossEntropy(logits, b.Y)
			net.ZeroGrad()
			net.Backward(grad)
			freezeStuckGradients(net, stuck)
			sgd.Step()
			restoreStuck()
		}
	}
	return net.Accuracy(train.X, train.Y, 64)
}

// maskSomeWeights marks ~frac of every weight tensor as stuck at value v.
func maskSomeWeights(net *nn.Network, frac, v float64, seed int64) StuckMask {
	r := rng.New(seed)
	stuck := make(StuckMask)
	for _, p := range net.Params() {
		mask := make([]bool, p.Value.Len())
		if strings.HasSuffix(p.Name, ".weight") {
			d := p.Value.Data()
			for j := range d {
				if r.Bernoulli(frac) {
					d[j] = v
					mask[j] = true
				}
			}
		}
		stuck[p.Name] = mask
	}
	return stuck
}

// TestRetrainEngineMatchesLegacy: RetrainAround on the compiled engine must
// reproduce the legacy loop's final weights and accuracy bit-for-bit,
// including the freeze→step→restore interaction with momentum.
func TestRetrainEngineMatchesLegacy(t *testing.T) {
	train := dataset.SynthDigits(80, dataset.DefaultDigitsConfig(64))
	build := func() (*nn.Network, StuckMask) {
		net := buildToyNet(train)
		stuck := maskSomeWeights(net, 0.15, 0, 21)
		return net, stuck
	}
	cfg := RetrainConfig{Epochs: 2, BatchSize: 16, LR: 0.01, Momentum: 0.9, Seed: 17}
	legacyNet, legacyStuck := build()
	subjectNet, subjectStuck := build()
	wantAcc := legacyRetrain(legacyNet, legacyStuck, train, cfg)
	gotAcc := RetrainAround(subjectNet, subjectStuck, train, nil, cfg)
	if math.Float64bits(wantAcc) != math.Float64bits(gotAcc) {
		t.Errorf("accuracy %v != legacy %v", gotAcc, wantAcc)
	}
	lp, sp := legacyNet.Params(), subjectNet.Params()
	for i := range lp {
		if !sp[i].Value.Equal(lp[i].Value) {
			t.Errorf("weights of %s diverge from legacy retrain loop", lp[i].Name)
		}
	}
}

func buildToyNet(train *dataset.Dataset) *nn.Network {
	return models.MLP(rng.New(12), train.SampleDim(), []int{32}, train.Classes)
}

// TestRetrainStuckFrozenUnderMomentum is the regression the freeze/restore
// sandwich exists for: with momentum enabled, velocity accumulated before a
// cell's gradient is zeroed could still drift the weight on later steps. The
// stuck cells carry a distinctive nonzero fault value and must hold it to the
// exact bit through a multi-epoch engine-driven retrain.
func TestRetrainStuckFrozenUnderMomentum(t *testing.T) {
	train := dataset.SynthDigits(81, dataset.DefaultDigitsConfig(64))
	net := buildToyNet(train)
	const faultVal = 0.4375 // exactly representable, unmistakably nonzero
	stuck := maskSomeWeights(net, 0.2, faultVal, 22)
	cfg := RetrainConfig{Epochs: 3, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 5}
	RetrainAround(net, stuck, train, nil, cfg)
	frozen, moved := 0, 0
	for _, p := range net.Params() {
		mask := stuck[p.Name]
		d := p.Value.Data()
		for j, s := range mask {
			if !s {
				continue
			}
			frozen++
			if d[j] != faultVal {
				moved++
			}
		}
	}
	if frozen == 0 {
		t.Fatal("mask marked no cells; test is vacuous")
	}
	if moved != 0 {
		t.Fatalf("%d of %d stuck cells drifted off their fault value under momentum", moved, frozen)
	}
}
