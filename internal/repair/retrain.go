package repair

import (
	"context"

	"reramtest/internal/dataset"
	"reramtest/internal/models"
	"reramtest/internal/nn"
)

// DefaultRetrainConfig returns a short fine-tuning schedule: repair is a
// touch-up of an already-trained model, not training from scratch.
func DefaultRetrainConfig() models.TrainConfig {
	return models.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, Seed: 17}
}

// DefaultHardenConfig returns a short drop-connect hardening schedule
// (models.Train with DropP set): fault-aware training that bakes stuck-at
// tolerance into the weights before the model is ever programmed onto
// hardware (arXiv:2404.15498). Like retraining, hardening is a touch-up of
// an already-trained model.
func DefaultHardenConfig() models.TrainConfig {
	return models.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, DropP: 0.1, Seed: 29}
}

// RetrainAround fine-tunes net's weights on train while keeping every
// position marked in stuck frozen at its current (faulty) value — the
// paper's fault-aware retraining repair [8]: the healthy weights learn to
// compensate for the cells that cannot be fixed. It is models.Train with
// cfg.Frozen set to stuck. net is modified in place.
//
// Positions absent from the mask (e.g. biases, which live in digital logic)
// train normally.
//
// ctx is checked before every batch. On cancellation the stuck positions
// still hold their values and the non-stuck weights keep whatever
// fine-tuning they had received — the caller decides whether to deploy or
// discard the partially-trained network; nothing here touches the hardware.
// The returned error is typed (*Error wrapping ctx.Err()).
func RetrainAround(ctx context.Context, net *nn.Network, stuck StuckMask, train *dataset.Dataset, cfg models.TrainConfig) error {
	cfg.Frozen = stuck
	if err := models.Train(ctx, net, train, cfg); err != nil {
		return &Error{Strategy: "retrain", Op: "train", Err: err}
	}
	return nil
}
