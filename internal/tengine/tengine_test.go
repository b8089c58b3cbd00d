package tengine_test

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// seedModels enumerates every architecture the repo ships. The golden gate
// below demands exact float64 equality against the legacy per-layer
// Forward/ZeroGrad/Backward path.
func seedModels() []struct {
	name    string
	build   func(r *rng.RNG) *nn.Network
	classes int
} {
	return []struct {
		name    string
		build   func(r *rng.RNG) *nn.Network
		classes int
	}{
		{"lenet5", models.LeNet5, 10},
		{"convnet7", models.ConvNet7, 10},
		{"mlp", func(r *rng.RNG) *nn.Network {
			return models.MLP(r, 16, []int{24, 16}, 6)
		}, 6},
		{"mlp-deep", func(r *rng.RNG) *nn.Network {
			return models.MLP(r, 32, []int{40, 32, 20}, 8)
		}, 8},
	}
}

// legacyStep is the reference gradient computation the rest of the repo used
// before the training engine existed: whole-batch layer-wise forward, loss on
// the logits, ZeroGrad, layer-wise backward. Returns the loss, a clone of the
// logits and the input gradient.
func legacyStep(net *nn.Network, x *tensor.Tensor, labels []int, target *tensor.Tensor) (float64, *tensor.Tensor, *tensor.Tensor) {
	logits := net.Forward(x)
	keep := logits.Clone()
	var loss float64
	var grad *tensor.Tensor
	if target != nil {
		loss, grad = nn.SoftCrossEntropy(logits, target)
	} else {
		loss, grad = nn.CrossEntropy(logits, labels)
	}
	net.ZeroGrad()
	gx := net.Backward(grad)
	return loss, keep, gx
}

func randBatch(seed int64, n, dim, classes int) (*tensor.Tensor, []int) {
	x := tensor.RandUniform(rng.New(seed), 0, 1, n, dim)
	labels := make([]int, n)
	for j := range labels {
		labels[j] = j % classes
	}
	return x, labels
}

// TestForwardBackwardMatchesLegacy is the golden bit-identity gate: every
// seed model, serial and pooled engines, batch sizes 1/7/32 streamed through
// ONE engine (so the workspace-view rebuild path is exercised), hard and
// smoothed-soft targets. Loss, logits, every parameter gradient and the input
// gradient must match the legacy path to the last bit.
func TestForwardBackwardMatchesLegacy(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	configs := []struct {
		name string
		opts tengine.Options
	}{
		{"serial", tengine.Options{Workers: 1, MaxBatch: 32, InputGrad: true}},
		{"pool4", tengine.Options{Pool: pool, MaxBatch: 32, InputGrad: true}},
	}
	for _, m := range seedModels() {
		for _, cfg := range configs {
			t.Run(m.name+"/"+cfg.name, func(t *testing.T) {
				legacy := m.build(rng.New(3))
				subject := m.build(rng.New(3))
				eng := tengine.MustCompile(subject, cfg.opts)
				for pass, n := range []int{1, 7, 32, 7} {
					x, labels := randBatch(int64(40+pass), n, legacy.InDim(), m.classes)
					var target *tensor.Tensor
					if pass == 3 { // one smoothed soft-target pass
						target = tensor.Full(0.1/float64(m.classes-1), n, m.classes)
						td := target.Data()
						for s, y := range labels {
							td[s*m.classes+y] = 0.9
						}
					}
					wantLoss, wantLogits, wantGX := legacyStep(legacy, x, labels, target)
					var gotLoss float64
					var stepErr error
					if target != nil {
						gotLoss, stepErr = eng.ForwardBackwardSoft(x, target)
					} else {
						gotLoss, stepErr = eng.ForwardBackward(x, labels)
					}
					if stepErr != nil {
						t.Fatalf("n=%d pass=%d: %v", n, pass, stepErr)
					}
					if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) {
						t.Fatalf("n=%d pass=%d: loss %v != legacy %v", n, pass, gotLoss, wantLoss)
					}
					if !eng.Logits().Equal(wantLogits) {
						t.Fatalf("n=%d pass=%d: logits diverge from legacy", n, pass)
					}
					if !eng.InputGrad().Equal(wantGX) {
						t.Fatalf("n=%d pass=%d: input gradient diverges from legacy", n, pass)
					}
					wp, gp := legacy.Params(), subject.Params()
					for i := range wp {
						if !gp[i].Grad.Equal(wp[i].Grad) {
							t.Fatalf("n=%d pass=%d: gradient of %s diverges from legacy", n, pass, wp[i].Name)
						}
					}
				}
			})
		}
	}
}

// TestTrainingRunBitIdentical drives multi-step momentum-SGD training through
// three arms — legacy per-layer loop, serial engine, pooled engine — and
// demands bit-identical final weights. This is the determinism contract of
// the fixed-order shard reduction: parallelism must not move a single bit of
// the trained model.
func TestTrainingRunBitIdentical(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	for _, m := range seedModels() {
		if m.name == "convnet7" && testing.Short() {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			legacy := m.build(rng.New(5))
			serial := m.build(rng.New(5))
			pooled := m.build(rng.New(5))
			const steps, batch = 8, 7
			lOpt := opt.NewSGD(legacy.Params(), 0.05, 0.9, 1e-4)
			sOpt := opt.NewSGD(serial.Params(), 0.05, 0.9, 1e-4)
			pOpt := opt.NewSGD(pooled.Params(), 0.05, 0.9, 1e-4)
			se := tengine.MustCompile(serial, tengine.Options{Workers: 1, MaxBatch: batch})
			pe := tengine.MustCompile(pooled, tengine.Options{Pool: pool, MaxBatch: batch})
			for step := 0; step < steps; step++ {
				x, labels := randBatch(int64(70+step), batch, legacy.InDim(), m.classes)
				logits := legacy.Forward(x)
				_, grad := nn.CrossEntropy(logits, labels)
				legacy.ZeroGrad()
				legacy.Backward(grad)
				lOpt.Step()
				se.ForwardBackward(x, labels)
				sOpt.StepAndZero()
				pe.ForwardBackward(x, labels)
				pOpt.StepAndZero()
			}
			lp, sp, pp := legacy.Params(), serial.Params(), pooled.Params()
			for i := range lp {
				if !sp[i].Value.Equal(lp[i].Value) {
					t.Errorf("serial engine weights of %s diverge from legacy", lp[i].Name)
				}
				if !pp[i].Value.Equal(lp[i].Value) {
					t.Errorf("pooled engine weights of %s diverge from legacy", lp[i].Name)
				}
			}
		})
	}
}

// TestForwardBackwardAllocFree pins the tentpole guarantee: after the first
// call sizes the workspaces, ForwardBackward and ForwardBackwardSoft perform
// zero heap allocations per step on every seed model, serial and pooled.
func TestForwardBackwardAllocFree(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	for _, m := range seedModels() {
		for _, cfg := range []struct {
			name string
			opts tengine.Options
		}{
			{"serial", tengine.Options{Workers: 1, MaxBatch: 8, InputGrad: true}},
			{"pool4", tengine.Options{Pool: pool, MaxBatch: 8, InputGrad: true}},
		} {
			t.Run(m.name+"/"+cfg.name, func(t *testing.T) {
				net := m.build(rng.New(9))
				eng := tengine.MustCompile(net, cfg.opts)
				x, labels := randBatch(99, 8, net.InDim(), m.classes)
				target := nn.UniformLabels(8, m.classes)
				eng.ForwardBackward(x, labels) // size workspaces
				eng.ForwardBackwardSoft(x, target)
				if a := testing.AllocsPerRun(10, func() { eng.ForwardBackward(x, labels) }); a != 0 {
					t.Errorf("ForwardBackward allocates %.1f objects/op, want 0", a)
				}
				if a := testing.AllocsPerRun(10, func() { eng.ForwardBackwardSoft(x, target) }); a != 0 {
					t.Errorf("ForwardBackwardSoft allocates %.1f objects/op, want 0", a)
				}
			})
		}
	}
}

// TestForwardBackwardEmptyBatch is the N=0 regression for the typed
// sentinel: both step entry points must refuse an empty batch without
// charging the counter.
func TestForwardBackwardEmptyBatch(t *testing.T) {
	net := models.MLP(rng.New(3), 16, []int{24, 16}, 6)
	eng := tengine.MustCompile(net, tengine.Options{Workers: 1})
	empty := tensor.New(0, 16)
	if _, err := eng.ForwardBackward(empty, nil); !errors.Is(err, tengine.ErrEmptyBatch) {
		t.Fatalf("ForwardBackward(empty) err = %v, want ErrEmptyBatch", err)
	}
	if _, err := eng.ForwardBackwardSoft(empty, tensor.New(0, 6)); !errors.Is(err, tengine.ErrEmptyBatch) {
		t.Fatalf("ForwardBackwardSoft(empty) err = %v, want ErrEmptyBatch", err)
	}
	if spent := eng.Counter().Settle(reram.ClassServing); !spent.IsZero() {
		t.Fatal("empty batch charged the hardware counter")
	}
}

// opaqueLayer implements nn.Layer but not the TrainKernel contract; Compile
// must reject it with a useful error instead of silently falling back.
type opaqueLayer struct{ nn.Layer }

func (o opaqueLayer) Name() string                            { return "opaque" }
func (o opaqueLayer) Forward(x *tensor.Tensor) *tensor.Tensor { return x }
func (o opaqueLayer) Backward(g *tensor.Tensor) *tensor.Tensor {
	return g
}
func (o opaqueLayer) Params() []*nn.Param        { return nil }
func (o opaqueLayer) Clone() nn.Layer            { return o }
func (o opaqueLayer) OutputShape(in []int) []int { return in }

func TestCompileRejectsUnsupportedLayer(t *testing.T) {
	net := nn.NewNetwork("bad", 4,
		nn.NewDense("fc", rng.New(1), 4, 4),
		opaqueLayer{},
	)
	if _, err := tengine.Compile(net, tengine.Options{}); err == nil {
		t.Fatal("Compile accepted a layer without a train kernel")
	}
}

// TestPoolShutdownNoGoroutineLeak compiles and runs a pooled engine, closes
// the pool, and verifies the worker goroutines drain — the leak check the
// race-enabled CI lane relies on.
func TestPoolShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := tensor.NewPool(4)
	net := models.MLP(rng.New(2), 16, []int{24, 16}, 6)
	eng := tengine.MustCompile(net, tengine.Options{Pool: pool, MaxBatch: 8})
	x, labels := randBatch(1, 8, 16, 6)
	for i := 0; i < 5; i++ {
		eng.ForwardBackward(x, labels)
	}
	pool.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("pool workers leaked: %d goroutines before, %d after Close", before, runtime.NumGoroutine())
}
