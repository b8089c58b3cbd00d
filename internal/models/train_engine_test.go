package models

import (
	"math"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// legacyTrain replicates the pre-engine Train loop verbatim: slice-of-batches
// iteration, whole-batch layer-wise Forward/Backward, smoothLabels rebuilt
// per batch, Step without fused zeroing. It is the reference arm for the
// engine-migration bit-identity gate.
func legacyTrain(net *nn.Network, train *dataset.Dataset, cfg TrainConfig) float64 {
	r := rng.New(cfg.Seed)
	sgd := opt.NewSGD(net.Params(), cfg.LR, cfg.Momentum, cfg.Decay)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRStep > 0 {
			sgd.SetLR(opt.StepDecay(cfg.LR, 0.5, cfg.LRStep)(epoch))
		}
		for _, b := range train.Batches(cfg.BatchSize, r) {
			logits := net.Forward(b.X)
			var grad *tensor.Tensor
			if cfg.LabelSmooth > 0 {
				sm := tensor.Full(cfg.LabelSmooth/float64(train.Classes-1), len(b.Y), train.Classes)
				sd := sm.Data()
				for s, y := range b.Y {
					sd[s*train.Classes+y] = 1 - cfg.LabelSmooth
				}
				_, grad = nn.SoftCrossEntropy(logits, sm)
			} else {
				_, grad = nn.CrossEntropy(logits, b.Y)
			}
			net.ZeroGrad()
			net.Backward(grad)
			sgd.Step()
		}
	}
	return net.Accuracy(train.X, train.Y, 64)
}

// TestTrainEngineMatchesLegacy: Train (compiled engine + reusable batch
// iterator + fused optimizer step) must reproduce the legacy loop's final
// weights and accuracy to the last bit, with and without label smoothing.
func TestTrainEngineMatchesLegacy(t *testing.T) {
	train := dataset.SynthDigits(42, dataset.DefaultDigitsConfig(80))
	for _, smooth := range []float64{0, 0.1} {
		cfg := TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9,
			Decay: 1e-4, LRStep: 1, LabelSmooth: smooth, Seed: 7}
		legacy := MLP(rng.New(6), train.SampleDim(), []int{32}, train.Classes)
		subject := MLP(rng.New(6), train.SampleDim(), []int{32}, train.Classes)
		wantAcc := legacyTrain(legacy, train, cfg)
		gotAcc := Train(subject, train, nil, cfg)
		if math.Float64bits(wantAcc) != math.Float64bits(gotAcc) {
			t.Errorf("smooth=%v: accuracy %v != legacy %v", smooth, gotAcc, wantAcc)
		}
		lp, sp := legacy.Params(), subject.Params()
		for i := range lp {
			if !sp[i].Value.Equal(lp[i].Value) {
				t.Errorf("smooth=%v: weights of %s diverge from legacy loop", smooth, lp[i].Name)
			}
		}
	}
}
