package models

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"reramtest/internal/dataset"
	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// TrainConfig controls the supervised training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Decay     float64 // L2 weight decay
	LRStep    int     // halve LR every LRStep epochs (0 = constant)
	// LabelSmooth is the label-smoothing mass ε: targets become 1-ε on the
	// true class and ε/(n-1) elsewhere. Smoothing calibrates the model's
	// confidences, which matters here beyond its usual regularisation role:
	// the C-TP corner-data selector needs genuinely soft outputs near
	// decision boundaries, and an unsmoothed over-confident model hides
	// them.
	LabelSmooth float64
	Seed        int64 // shuffling seed
	Log         io.Writer
}

// DefaultTrainConfig returns the settings used to train both evaluation
// models.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 6, BatchSize: 32, LR: 0.05, Momentum: 0.9, Decay: 1e-4, LRStep: 3, LabelSmooth: 0.1, Seed: 7}
}

// Train runs mini-batch SGD on net over train, reporting per-epoch loss.
// Accuracy is the caller's to measure, through an inference plan
// (engine.Engine.Accuracy): models sits below engine in the import graph.
//
// The loop runs through a compiled tengine plan and the reusable batch
// iterator, so the steady state allocates nothing; train_engine_test.go pins
// the weights it trains.
func Train(net *nn.Network, train *dataset.Dataset, cfg TrainConfig) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	r := rng.New(cfg.Seed)
	sgd := opt.NewSGD(net.Params(), cfg.LR, cfg.Momentum, cfg.Decay)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: cfg.BatchSize})
	it := train.BatchIterator(cfg.BatchSize)
	smooth := newSmoothTargets(cfg.BatchSize, train.Classes, cfg.LabelSmooth)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRStep > 0 {
			sgd.SetLR(opt.StepDecay(cfg.LR, 0.5, cfg.LRStep)(epoch))
		}
		start := time.Now()
		totalLoss, nBatches := 0.0, 0
		it.Reset(r)
		for {
			bx, by, ok := it.Next()
			if !ok {
				break
			}
			var loss float64
			// iterator batches are never empty (Next reported ok)
			if cfg.LabelSmooth > 0 {
				loss, _ = eng.ForwardBackwardSoft(bx, smooth.fill(by))
			} else {
				loss, _ = eng.ForwardBackward(bx, by)
			}
			sgd.StepAndZero()
			totalLoss += loss
			nBatches++
		}
		fmt.Fprintf(logw, "epoch %d/%d: loss=%.4f lr=%.4f (%.1fs)\n",
			epoch+1, cfg.Epochs, totalLoss/float64(nBatches), sgd.LR(), time.Since(start).Seconds())
	}
}

// smoothTargets is a reusable label-smoothing target buffer: one workspace
// sized to the full batch, refilled in place every fill call (the tail batch
// rebuilds only the view header): ε/(n-1) everywhere, 1-ε on the true class.
type smoothTargets struct {
	classes int
	eps     float64
	buf     []float64
	t       *tensor.Tensor
	n       int
}

func newSmoothTargets(batchSize, classes int, eps float64) *smoothTargets {
	return &smoothTargets{classes: classes, eps: eps, buf: make([]float64, batchSize*classes)}
}

func (st *smoothTargets) fill(labels []int) *tensor.Tensor {
	off := st.eps / float64(st.classes-1)
	b := len(labels)
	data := st.buf[:b*st.classes]
	for i := range data {
		data[i] = off
	}
	for s, y := range labels {
		data[s*st.classes+y] = 1 - st.eps
	}
	if st.t == nil || st.n != b {
		st.t = tensor.FromSlice(data, b, st.classes)
		st.n = b
	}
	return st.t
}

// TrainOrLoad returns a trained network, loading cached weights from path if
// the file exists and otherwise training from scratch with trainFn and
// caching the result. build must deterministically construct the (untrained)
// architecture.
func TrainOrLoad(path string, build func() *nn.Network, trainFn func(net *nn.Network)) (*nn.Network, error) {
	net := build()
	if _, err := os.Stat(path); err == nil {
		if err := LoadWeights(path, net); err != nil {
			return nil, fmt.Errorf("models: cached weights at %s are unreadable: %w", path, err)
		}
		return net, nil
	}
	trainFn(net)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("models: creating cache dir for %s: %w", path, err)
	}
	if err := SaveWeights(path, net); err != nil {
		return nil, fmt.Errorf("models: caching weights: %w", err)
	}
	return net, nil
}
