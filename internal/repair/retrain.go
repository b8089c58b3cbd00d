package repair

import (
	"context"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/models"
	"reramtest/internal/nn"
)

// DefaultRetrainConfig returns a short fine-tuning schedule: repair is a
// touch-up of an already-trained model, not training from scratch.
func DefaultRetrainConfig() models.TrainConfig {
	return models.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, Seed: 17}
}

// DefaultHardenConfig returns a short hardening schedule: like retraining,
// hardening is a touch-up of an already-trained model.
func DefaultHardenConfig() models.TrainConfig {
	return models.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, DropP: 0.1, Seed: 29}
}

// RetrainAround fine-tunes net's weights on train while keeping every
// position marked in stuck frozen at its current (faulty) value — the
// paper's fault-aware retraining repair [8]: the healthy weights learn to
// compensate for the cells that cannot be fixed. It is models.Train with
// cfg.Frozen set to stuck. net is modified in place; the returned accuracy is
// measured on eval (or train when eval is nil).
//
// Positions absent from the mask (e.g. biases, which live in digital logic)
// train normally.
//
// ctx is checked before every batch. On cancellation the stuck positions
// still hold their values and the non-stuck weights keep whatever
// fine-tuning they had received — the caller decides whether to deploy or
// discard the partially-trained network; nothing here touches the hardware.
// The returned error is typed (*Error wrapping ctx.Err()).
func RetrainAround(ctx context.Context, net *nn.Network, stuck StuckMask, train, eval *dataset.Dataset, cfg models.TrainConfig) (float64, error) {
	cfg.Frozen = stuck
	acc, err := trainAndMeasure(ctx, net, train, eval, cfg)
	if err != nil {
		return 0, &Error{Strategy: "retrain", Op: "train", Err: err}
	}
	return acc, nil
}

// HardenDropConnect fine-tunes net under per-element Bernoulli weight
// dropping (cfg.DropP, see DefaultHardenConfig) — fault-aware training that
// bakes stuck-at tolerance into the weights before the model is ever
// programmed onto hardware (arXiv:2404.15498). net is modified in place; the
// returned accuracy is measured on eval (or train when eval is nil) with
// masking off.
func HardenDropConnect(net *nn.Network, train, eval *dataset.Dataset, cfg models.TrainConfig) (float64, error) {
	return trainAndMeasure(context.Background(), net, train, eval, cfg)
}

// trainAndMeasure runs models.Train, then measures net's accuracy on eval
// (or train when eval is nil) through an inference plan.
func trainAndMeasure(ctx context.Context, net *nn.Network, train, eval *dataset.Dataset, cfg models.TrainConfig) (float64, error) {
	if err := models.Train(ctx, net, train, cfg); err != nil {
		return 0, err
	}
	if eval == nil {
		eval = train
	}
	return engine.MustCompile(net, engine.Options{}).Accuracy(eval.X, eval.Y, 64), nil
}
