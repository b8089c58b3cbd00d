package repair

import (
	"fmt"
	"io"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
)

// HardenConfig controls commissioning-time drop-connect hardening.
type HardenConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// DropP is the per-element weight drop probability per step — set it at
	// or above the stuck-cell rate the deployment expects to ride through.
	DropP float64
	Seed  int64
	Log   io.Writer
}

// DefaultHardenConfig returns a short hardening schedule: like retraining,
// hardening is a touch-up of an already-trained model.
func DefaultHardenConfig() HardenConfig {
	return HardenConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, DropP: 0.1, Seed: 29}
}

// HardenDropConnect fine-tunes net under per-element Bernoulli weight
// dropping (tengine.DropConnect) — fault-aware training that bakes stuck-at
// tolerance into the weights before the model is ever programmed onto
// hardware. net is modified in place; the returned accuracy is measured on
// eval (or train when eval is nil) with masking off.
func HardenDropConnect(net *nn.Network, train, eval *dataset.Dataset, cfg HardenConfig) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	r := rng.New(cfg.Seed)
	sgd := opt.NewSGD(net.Params(), cfg.LR, cfg.Momentum, 0)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: cfg.BatchSize})
	dc := tengine.NewDropConnect(eng, cfg.DropP, r.Split())
	it := train.BatchIterator(cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		total, batches := 0.0, 0
		it.Reset(r)
		for {
			bx, by, ok := it.Next()
			if !ok {
				break
			}
			loss, _ := dc.Step(bx, by) // iterator batches are never empty
			total += loss
			sgd.StepAndZero()
			batches++
		}
		fmt.Fprintf(logw, "harden epoch %d/%d: loss=%.4f\n", epoch+1, cfg.Epochs, total/float64(batches))
	}
	if eval == nil {
		eval = train
	}
	return engine.MustCompile(net, engine.Options{}).Accuracy(eval.X, eval.Y, 64)
}
