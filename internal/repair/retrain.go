package repair

import (
	"context"
	"fmt"
	"io"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
)

// RetrainConfig controls fault-aware fine-tuning.
type RetrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      int64
	Log       io.Writer
}

// DefaultRetrainConfig returns a short fine-tuning schedule: repair is a
// touch-up of an already-trained model, not training from scratch.
func DefaultRetrainConfig() RetrainConfig {
	return RetrainConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, Seed: 17}
}

// RetrainAround fine-tunes net's weights on train while keeping every
// position marked in stuck frozen at its current (faulty) value — the
// paper's fault-aware retraining repair [8]: the healthy weights learn to
// compensate for the cells that cannot be fixed. net is modified in place;
// the returned accuracy is measured on eval (or train when eval is nil).
//
// Positions absent from the mask (e.g. biases, which live in digital logic)
// train normally.
func RetrainAround(net *nn.Network, stuck StuckMask, train, eval *dataset.Dataset, cfg RetrainConfig) float64 {
	acc, err := RetrainAroundCtx(context.Background(), net, stuck, train, eval, cfg)
	if err != nil {
		// background context never cancels, so this is unreachable; keep the
		// context-free signature total anyway
		return 0
	}
	return acc
}

// RetrainAroundCtx is RetrainAround with cooperative cancellation: ctx is
// checked before every batch, and on cancellation the stuck positions are
// restored (via the SnapshotStuck restore closure) before returning, so no
// frozen-gradient state leaks out of an aborted retrain. The non-stuck weights
// keep whatever fine-tuning they had received — the caller decides whether
// to deploy or discard the partially-trained network; nothing here touches
// the hardware. The returned error is typed (*Error wrapping ctx.Err()).
func RetrainAroundCtx(ctx context.Context, net *nn.Network, stuck StuckMask, train, eval *dataset.Dataset, cfg RetrainConfig) (float64, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	r := rng.New(cfg.Seed)
	sgd := opt.NewSGD(net.Params(), cfg.LR, cfg.Momentum, 0)
	restoreStuck := SnapshotStuck(net, stuck)
	// the fine-tuning loop runs through a compiled training plan: one
	// ForwardBackward overwrites every Param.Grad with the batch gradient,
	// which the freeze→step→restore sandwich then edits, applies and clears
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: cfg.BatchSize})
	it := train.BatchIterator(cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		total, batches := 0.0, 0
		it.Reset(r)
		for {
			if err := ctx.Err(); err != nil {
				restoreStuck()
				return 0, &Error{Strategy: "retrain", Op: "train", Err: err}
			}
			bx, by, ok := it.Next()
			if !ok {
				break
			}
			loss, _ := eng.ForwardBackward(bx, by) // iterator batches are never empty
			freezeStuckGradients(net, stuck)
			sgd.StepAndZero()
			restoreStuck() // momentum-proof: hold faulty cells exactly
			total += loss
			batches++
		}
		fmt.Fprintf(logw, "retrain epoch %d/%d: loss=%.4f\n", epoch+1, cfg.Epochs, total/float64(batches))
	}
	if eval == nil {
		eval = train
	}
	return engine.MustCompile(net, engine.Options{}).Accuracy(eval.X, eval.Y, 64), nil
}

// freezeStuckGradients zeroes the gradient of every stuck position so the
// optimizer never tries to move a weight the hardware cannot realise.
func freezeStuckGradients(net *nn.Network, stuck StuckMask) {
	for _, p := range net.Params() {
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

// SnapshotStuck captures the current values at stuck positions and returns
// a restore function that writes them back — called after every optimizer
// step so that even momentum (whose velocity can move a weight after its
// gradient is zeroed) cannot drift a frozen cell.
func SnapshotStuck(net *nn.Network, stuck StuckMask) func() {
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
