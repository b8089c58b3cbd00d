// Package reramtest_test benchmarks the full reproduction pipeline: one
// benchmark per table and figure of the paper's evaluation section, plus
// microbenchmarks of the hot paths (inference, pattern observation, O-TP
// optimization steps).
//
// Each BenchmarkTableN/BenchmarkFigN regenerates the corresponding result
// through internal/experiments; the first iteration pays the real cost and
// later iterations hit the Env's sweep caches, so reported ns/op approaches
// the incremental cost. Use `go run ./cmd/experiment -id all` to print the
// actual rows and series.
package reramtest_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"reramtest/internal/engine"
	"reramtest/internal/experiments"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
	envErr   error
)

// env returns the shared experiment environment. Benches are skipped when
// the trained-weight cache is missing (run `go run ./cmd/train` once).
func env(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		scale := experiments.DefaultScale()
		// keep the bench suite to minutes on one core; REPRO_FULL=1
		// restores the paper-scale counts
		if os.Getenv("REPRO_FULL") != "1" {
			scale.FaultModels = 10
			scale.AccModels = 3
			scale.AccImages = 300
		}
		benchEnv, envErr = experiments.NewEnv(scale, nil)
	})
	if envErr != nil {
		b.Skipf("experiment environment unavailable: %v", envErr)
	}
	return benchEnv
}

// BenchmarkTable1 regenerates Table I: LeNet-5 accuracy vs programming-error
// σ.
func BenchmarkTable1(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if tab := e.Table1(); tab.CleanAcc == 0 {
			b.Fatal("empty Table I")
		}
	}
}

// BenchmarkTable2 regenerates Table II: ConvNet-7 accuracy vs σ.
func BenchmarkTable2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if tab := e.Table2(); tab.CleanAcc == 0 {
			b.Fatal("empty Table II")
		}
	}
}

// BenchmarkTable3 regenerates Table III: average detection rates of
// AET/C-TP/O-TP under all six SDC criteria on both models.
func BenchmarkTable3(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		tab := e.Table3()
		if len(tab.Rates) != 2 {
			b.Fatal("incomplete Table III")
		}
	}
}

// BenchmarkTable4 regenerates Table IV: the CV stability metric per σ.
func BenchmarkTable4(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		tab := e.Table4()
		if len(tab.CV) != len(experiments.Methods) {
			b.Fatal("incomplete Table IV")
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3: confidence distances vs σ.
func BenchmarkFig3(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		f := e.Fig3()
		if len(f.Top) != 2 {
			b.Fatal("incomplete Fig 3")
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: detection rate vs σ on the
// confidence-distance criteria.
func BenchmarkFig4(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		f := e.Fig4()
		if len(f.Criteria) != 4 {
			b.Fatal("incomplete Fig 4")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: detection rate vs σ on SDC-1/SDC-5.
func BenchmarkFig5(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		f := e.Fig5()
		if len(f.Criteria) != 2 {
			b.Fatal("incomplete Fig 5")
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: detection rates under random soft
// errors.
func BenchmarkFig6(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		f := e.Fig6()
		if len(f.Criteria) != 6 {
			b.Fatal("incomplete Fig 6")
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: distance std vs pattern budget.
func BenchmarkFig7(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		f := e.Fig7()
		if len(f.Std) != 2 {
			b.Fatal("incomplete Fig 7")
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8: confidence distance vs model accuracy
// with the linearity fits.
func BenchmarkFig8(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		f := e.Fig8()
		if f.Slope["otp"] == 0 {
			b.Fatal("incomplete Fig 8")
		}
	}
}

// BenchmarkLeNetInference measures single-image digital inference on the
// trained LeNet-5 — the unit of work every concurrent-test observation
// multiplies.
func BenchmarkLeNetInference(b *testing.B) {
	e := env(b)
	x := e.DigitsTest.Input(0)
	eng := engine.MustCompile(e.LeNet, engine.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ForwardBatch(nil, x)
	}
}

// BenchmarkConvNetInference measures single-image inference on ConvNet-7.
func BenchmarkConvNetInference(b *testing.B) {
	e := env(b)
	x := e.ObjectsTest.Input(0)
	eng := engine.MustCompile(e.ConvNet, engine.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ForwardBatch(nil, x)
	}
}

// BenchmarkConcurrentTestRound measures one full monitor round: 10 O-TP
// patterns through LeNet-5 plus golden comparison — the recurring run-time
// cost the paper's "cost-effective" claim is about (vs. the 10K-image
// alternative).
func BenchmarkConcurrentTestRound(b *testing.B) {
	e := env(b)
	patterns := e.PatternsDefault("lenet5", "otp")
	golden := monitor.Capture(e.LeNet, patterns)
	faulty := faults.MakeFaulty(e.LeNet, faults.LogNormal{Sigma: 0.2}, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := golden.Observe(faulty)
		if o.AllDist < 0 {
			b.Fatal("impossible distance")
		}
	}
}

// BenchmarkFullTestSetEvaluation measures the cost the paper's method
// replaces: scoring accuracy over an entire test split.
func BenchmarkFullTestSetEvaluation(b *testing.B) {
	e := env(b)
	eval := e.DigitsTest.Head(300)
	eng := engine.MustCompile(e.LeNet, engine.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Accuracy(eval.X, eval.Y, 64)
	}
}

// BenchmarkFaultModelGeneration measures cloning + lognormal injection.
func BenchmarkFaultModelGeneration(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faults.MakeFaulty(e.LeNet, faults.LogNormal{Sigma: 0.3}, int64(i))
	}
}

// BenchmarkOTPIteration measures one Algorithm-1 gradient step on a 10-
// pattern batch (both model passes), the unit cost of O-TP generation.
func BenchmarkOTPIteration(b *testing.B) {
	e := env(b)
	ref := faults.MakeFaulty(e.LeNet, faults.LogNormal{Sigma: 0.3}, 3)
	cfg := testgen.DefaultOTPConfig()
	cfg.MaxIters = 1 // exactly one optimization step per call
	r := rng.New(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testgen.GenerateOTP(e.LeNet, ref, 10, cfg, r)
	}
}

// BenchmarkCTPSelection measures corner-data ranking over the full
// inference pool.
func BenchmarkCTPSelection(b *testing.B) {
	e := env(b)
	pool := e.PoolFor("lenet5").Head(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testgen.SelectCTP(e.LeNet, pool, 50)
	}
}

// BenchmarkCrossbarReadout measures exporting effective weights from the
// simulated accelerator — the bridge between device-level state and the
// weight-level fault models.
func BenchmarkCrossbarReadout(b *testing.B) {
	e := env(b)
	accel := reram.NewAccelerator(e.LeNet, reram.DefaultConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accel.ReadoutNetwork()
	}
}

// BenchmarkCrossbarAnalogMatVec measures one DAC→crossbar→ADC matrix-vector
// product on a 128×128 differential tile pair.
func BenchmarkCrossbarAnalogMatVec(b *testing.B) {
	r := rng.New(5)
	w := tensor.Randn(r, 0, 0.5, 128, 128)
	tl := reram.MapLinear(w, reram.DefaultConfig(), r)
	x := make([]float64, 128)
	rng.New(6).FillUniform(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.MatVec(x)
	}
}

// BenchmarkAblationCTPPool regenerates the C-TP pool-depth ablation.
func BenchmarkAblationCTPPool(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r := e.AblationCTPPool()
		if len(r.PoolSizes) == 0 {
			b.Fatal("empty pool ablation")
		}
	}
}

// BenchmarkAblationADCBits regenerates the converter-resolution ablation.
func BenchmarkAblationADCBits(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r := e.AblationADCBits()
		if len(r.Accuracy) == 0 {
			b.Fatal("empty ADC ablation")
		}
	}
}

// batchBenchModels builds the batched-readout benchmark workloads. These
// run on untrained weights (inference cost is weight-value independent) so
// the comparison needs no trained-weight cache and never skips.
func batchBenchModels() []struct {
	name string
	net  *nn.Network
} {
	return []struct {
		name string
		net  *nn.Network
	}{
		{"mlp", models.MLP(rng.New(1), 16, []int{24, 16}, 6)},
		{"lenet5", models.LeNet5(rng.New(2))},
		{"convnet7", models.ConvNet7(rng.New(5))},
	}
}

// BenchmarkForwardBatched measures the monitor readout through a compiled
// batch-first engine: one Probs call over the whole batch, reusing
// workspaces (0 allocs/op in steady state — asserted by
// TestBatchedForwardAllocFree).
func BenchmarkForwardBatched(b *testing.B) {
	for _, m := range batchBenchModels() {
		eng := engine.MustCompile(m.net, engine.Options{})
		for _, n := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/B%d", m.name, n), func(b *testing.B) {
				x := tensor.RandUniform(rng.New(3), 0, 1, n, m.net.InDim())
				eng.Probs(x) // warm the workspaces outside the timer
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Probs(x)
				}
			})
		}
	}
}

// TestBatchedForwardAllocFree asserts the engine's steady-state contract on
// the benchmark workloads: after warmup, a same-size batch performs zero
// allocations per readout.
func TestBatchedForwardAllocFree(t *testing.T) {
	for _, m := range batchBenchModels() {
		eng := engine.MustCompile(m.net, engine.Options{})
		for _, n := range []int{1, 16, 64} {
			x := tensor.RandUniform(rng.New(4), 0, 1, n, m.net.InDim())
			eng.Probs(x) // warmup sizes the workspaces for this batch
			if allocs := testing.AllocsPerRun(20, func() { eng.Probs(x) }); allocs != 0 {
				t.Errorf("%s B=%d: %v allocs/op in steady state, want 0", m.name, n, allocs)
			}
		}
	}
}
