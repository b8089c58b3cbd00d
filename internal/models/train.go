package models

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"reramtest/internal/dataset"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// TrainConfig controls the supervised training loop. One loop serves plain
// training, fault-aware retraining around stuck cells (Frozen) and
// drop-connect hardening (DropP).
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
	// DropP is the per-element weight drop probability per step
	// (tengine.DropConnect): fault-aware hardening that bakes stuck-at
	// tolerance into the weights. Set it at or above the stuck-cell rate the
	// deployment expects to ride through. It trains on hard labels, so it
	// cannot be combined with LabelSmooth.
	DropP float64
	// Frozen marks, per parameter name, the positions held at their current
	// value throughout training — the stuck cells a fault-aware retrain
	// learns around. Parameters absent from the map train normally.
	Frozen map[string][]bool
	Seed   int64 // shuffling seed
	Log    io.Writer
}

// DefaultTrainConfig returns the settings used to train both evaluation
// models.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 6, BatchSize: 32, LR: 0.05, Momentum: 0.9, Decay: 1e-4, LRStep: 3, LabelSmooth: 0.1, Seed: 7}
}

// Train runs mini-batch momentum SGD on net over train, reporting per-epoch
// loss. Accuracy is the caller's to measure, through an inference plan
// (engine.Engine.Accuracy): models sits below engine in the import graph.
//
// ctx is checked before every batch; a canceled ctx returns an error wrapping
// ctx.Err(), with the weights as the last completed step left them (Frozen
// positions still hold their values).
//
// The loop runs through a compiled tengine plan and the reusable batch
// iterator, so the steady state allocates nothing; train_engine_test.go pins
// the weights it trains.
func Train(ctx context.Context, net *nn.Network, train *dataset.Dataset, cfg TrainConfig) error {
	if cfg.DropP > 0 && cfg.LabelSmooth > 0 {
		return fmt.Errorf("models: drop-connect (DropP %g) trains on hard labels; LabelSmooth %g is not applied to it", cfg.DropP, cfg.LabelSmooth)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	r := rng.New(cfg.Seed)
	params := net.Params()
	sgd := tengine.NewSGD(params, cfg.LR, cfg.Momentum, cfg.Decay)
	restoreFrozen := snapshotStuck(net, cfg.Frozen)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: cfg.BatchSize})
	var dc *tengine.DropConnect
	if cfg.DropP > 0 {
		// split before the first shuffle draws from r
		dc = tengine.NewDropConnect(eng, cfg.DropP, r.Split())
	}
	var smooth *smoothTargets
	if cfg.LabelSmooth > 0 {
		smooth = newSmoothTargets(cfg.BatchSize, train.Classes, cfg.LabelSmooth)
	}
	it := train.BatchIterator(cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRStep > 0 {
			sgd.SetLR(tengine.StepDecay(cfg.LR, 0.5, cfg.LRStep)(epoch))
		}
		start := time.Now()
		totalLoss, nBatches := 0.0, 0
		it.Reset(r)
		for {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("models: training epoch %d: %w", epoch+1, err)
			}
			bx, by, ok := it.Next()
			if !ok {
				break
			}
			var loss float64
			// iterator batches are never empty (Next reported ok)
			switch {
			case dc != nil:
				loss, _ = dc.Step(bx, by)
			case smooth != nil:
				loss, _ = eng.ForwardBackwardSoft(bx, smooth.fill(by))
			default:
				loss, _ = eng.ForwardBackward(bx, by)
			}
			freezeStuckGradients(params, cfg.Frozen)
			sgd.StepAndZero()
			restoreFrozen() // momentum-proof: hold frozen cells exactly
			totalLoss += loss
			nBatches++
		}
		fmt.Fprintf(logw, "epoch %d/%d: loss=%.4f lr=%.4f (%.1fs)\n",
			epoch+1, cfg.Epochs, totalLoss/float64(nBatches), sgd.LR(), time.Since(start).Seconds())
	}
	return nil
}

// freezeStuckGradients zeroes the gradient of every stuck position so the
// optimizer never tries to move a weight the hardware cannot realise.
func freezeStuckGradients(params []*nn.Param, stuck map[string][]bool) {
	for _, p := range params {
		mask, ok := stuck[p.Name]
		if !ok {
			continue
		}
		g := p.Grad.Data()
		for j, s := range mask {
			if s {
				g[j] = 0
			}
		}
	}
}

// snapshotStuck captures the current values at stuck positions and returns
// a restore function that writes them back — called after every optimizer
// step so that even momentum (whose velocity can move a weight after its
// gradient is zeroed) cannot drift a frozen cell.
func snapshotStuck(net *nn.Network, stuck map[string][]bool) func() {
	type frozen struct {
		data []float64
		idx  []int
		vals []float64
	}
	var all []frozen
	for _, p := range net.Params() {
		mask, ok := stuck[p.Name]
		if !ok {
			continue
		}
		f := frozen{data: p.Value.Data()}
		for j, s := range mask {
			if s {
				f.idx = append(f.idx, j)
				f.vals = append(f.vals, f.data[j])
			}
		}
		if len(f.idx) > 0 {
			all = append(all, f)
		}
	}
	return func() {
		for _, f := range all {
			for k, j := range f.idx {
				f.data[j] = f.vals[k]
			}
		}
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
func TrainOrLoad(path string, build func() *nn.Network, trainFn func(net *nn.Network) error) (*nn.Network, error) {
	net := build()
	if _, err := os.Stat(path); err == nil {
		if err := LoadWeights(path, net); err != nil {
			return nil, fmt.Errorf("models: cached weights at %s are unreadable: %w", path, err)
		}
		return net, nil
	}
	if err := trainFn(net); err != nil {
		return nil, fmt.Errorf("models: training for %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("models: creating cache dir for %s: %w", path, err)
	}
	if err := SaveWeights(path, net); err != nil {
		return nil, fmt.Errorf("models: caching weights: %w", err)
	}
	return net, nil
}
