package tengine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"reramtest/internal/hwcost"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// seedModels enumerates every architecture the repo ships. The golden gates
// below demand exact float64 equality with the legacy per-layer
// Forward/ZeroGrad/Backward path, through digests of its output taken before
// it was deleted.
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

// legacyDigests holds, per seed model, the SHA-256 over the four passes of
// TestForwardBackwardMatchesLegacy (each pass a passDigest of loss, logits,
// input gradient and every parameter gradient) and over the final weights
// of TestTrainingRunBitIdentical, as the legacy per-layer path computed them:
// whole-batch layer-wise Forward, loss on the logits, ZeroGrad, layer-wise
// Backward (and, in the run, SGD.Step).
var legacyDigests = map[string]struct{ pass, run string }{
	"lenet5":   {"2fcd963d1c9c2b2849d3757e526e37592d3f821d9ff2d2e88337bf759ff2df15", "bb0ace433548b7778ba6c69d60233123cc52d6702eab1a99db5008ab8af7a8df"},
	"convnet7": {"aa712570fb43caf113f8b5b6d0f8c9fb0a8ce13f427a5dbcb5d1855d4f6fce60", "95227c0834a601657a0379ad4036fcf32179047e4d4e3fe555ab1ce4e0c4acd8"},
	"mlp":      {"fcfa797bb758eda80996d8e73f106006b6fa6ce4436daf60c08eb8d3db069391", "cd09fa5175c5860d38ce7a3c54f3e1b5df3c7cde7460c462122fbb808ecdb64f"},
	"mlp-deep": {"95603c6fa3c45f96298387937765a5cccdbf00b991cda3843054ad9a47bedd89", "9c8c879d5746cf9df1cf399a078dab2d375ebe409c49f427b5859863da56adaf"},
}

// passDigest is the SHA-256 of loss's bits followed by every element's bits
// of ts, in order.
func passDigest(loss float64, ts ...*tensor.Tensor) []byte {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(loss))
	h.Write(b[:])
	for _, t := range ts {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum(nil)
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
// gradient must match the legacy path to the last bit: the digest over all
// four passes must be the legacy one.
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
				subject := m.build(rng.New(3))
				eng := tengine.MustCompile(subject, cfg.opts)
				run := sha256.New()
				for pass, n := range []int{1, 7, 32, 7} {
					x, labels := randBatch(int64(40+pass), n, subject.InDim(), m.classes)
					var target *tensor.Tensor
					if pass == 3 { // one smoothed soft-target pass
						target = tensor.Full(0.1/float64(m.classes-1), n, m.classes)
						td := target.Data()
						for s, y := range labels {
							td[s*m.classes+y] = 0.9
						}
					}
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
					ts := []*tensor.Tensor{eng.Logits(), eng.InputGrad()}
					for _, p := range subject.Params() {
						ts = append(ts, p.Grad)
					}
					run.Write(passDigest(gotLoss, ts...))
				}
				if d := hex.EncodeToString(run.Sum(nil)); d != legacyDigests[m.name].pass {
					t.Fatalf("loss, logits or gradients diverge from legacy: digest %s, legacy %s", d, legacyDigests[m.name].pass)
				}
			})
		}
	}
}

// TestTrainingRunBitIdentical drives multi-step momentum-SGD training through
// two arms — serial engine, pooled engine — and demands bit-identical final
// weights, equal to the legacy per-layer loop's (its pinned digest). This is
// the determinism contract of the fixed-order shard reduction: parallelism
// must not move a single bit of the trained model.
func TestTrainingRunBitIdentical(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	for _, m := range seedModels() {
		if m.name == "convnet7" && testing.Short() {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			serial := m.build(rng.New(5))
			pooled := m.build(rng.New(5))
			const steps, batch = 8, 7
			sOpt := tengine.NewSGD(serial.Params(), 0.05, 0.9, 1e-4)
			pOpt := tengine.NewSGD(pooled.Params(), 0.05, 0.9, 1e-4)
			se := tengine.MustCompile(serial, tengine.Options{Workers: 1, MaxBatch: batch})
			pe := tengine.MustCompile(pooled, tengine.Options{Pool: pool, MaxBatch: batch})
			for step := 0; step < steps; step++ {
				x, labels := randBatch(int64(70+step), batch, serial.InDim(), m.classes)
				se.ForwardBackward(x, labels)
				sOpt.StepAndZero()
				pe.ForwardBackward(x, labels)
				pOpt.StepAndZero()
			}
			sp, pp := serial.Params(), pooled.Params()
			var ws []*tensor.Tensor
			for i := range sp {
				if !pp[i].Value.Equal(sp[i].Value) {
					t.Errorf("pooled engine weights of %s diverge from serial", sp[i].Name)
				}
				ws = append(ws, sp[i].Value)
			}
			if d := hex.EncodeToString(passDigest(0, ws...)); d != legacyDigests[m.name].run {
				t.Errorf("trained weights digest %s, legacy loop %s", d, legacyDigests[m.name].run)
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
	if spent := eng.Counter().Settle(hwcost.ClassServing); !spent.IsZero() {
		t.Fatal("empty batch charged the hardware counter")
	}
}

// TestStepCostPinned pins the per-sample training-step sticker (3× the
// forward model, priced at the reference tile hwcost.DefaultTileRows ×
// hwcost.DefaultTileCols) of the stock MLP and the paper's two models,
// read back off the counter after a two-sample step.
func TestStepCostPinned(t *testing.T) {
	want := map[string]hwcost.Cost{
		"lenet5":   {ComputeCycles: 2970, DACConversions: 105612, ADCConversions: 760320, CrossbarReads: 2499120, EnergyFJ: 15086688, BufferBytes: 1502832},
		"convnet7": {ComputeCycles: 4818, DACConversions: 264768, ADCConversions: 1233408, CrossbarReads: 12611328, EnergyFJ: 33404928, BufferBytes: 4368624},
		"mlp":      {ComputeCycles: 9, DACConversions: 168, ADCConversions: 2304, CrossbarReads: 5184, EnergyFJ: 42720, BufferBytes: 4368},
	}
	for _, m := range seedModels()[:3] {
		net := m.build(rng.New(1))
		eng := tengine.MustCompile(net, tengine.Options{})
		x, labels := randBatch(3, 2, net.InDim(), m.classes)
		if _, err := eng.ForwardBackward(x, labels); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := eng.Counter().Settle(hwcost.ClassRepair); got != want[m.name].Scale(2) {
			t.Errorf("%s: two-sample step charged %+v, want 2 × %+v", m.name, got, want[m.name])
		}
	}
}

// opaqueLayer implements nn.Layer but not the TrainKernel contract; Compile
// must reject it with a useful error instead of silently falling back.
type opaqueLayer struct{ nn.Layer }

func (o opaqueLayer) Name() string               { return "opaque" }
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
