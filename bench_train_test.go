package reramtest_test

import (
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// trainFixture builds the training workload: a fresh MLP on a synthetic
// digit set (no weight cache required — untrained weights cost
// the same to differentiate as trained ones).
func trainFixture() (*nn.Network, *dataset.Dataset) {
	train := dataset.SynthDigits(31, dataset.DefaultDigitsConfig(128))
	net := models.MLP(rng.New(13), train.SampleDim(), []int{64, 32}, train.Classes)
	return net, train
}

// BenchmarkTrainStepEngine is one training step — batch forward,
// cross-entropy, backward, momentum SGD — through the compiled training plan
// with the fused allocation-free optimizer update.
func BenchmarkTrainStepEngine(b *testing.B) {
	net, train := trainFixture()
	sgd := tengine.NewSGD(net.Params(), 0.05, 0.9, 1e-4)
	eng := tengine.MustCompile(net, tengine.Options{Workers: 1, MaxBatch: 32})
	x := tensor.FromSlice(train.X.Data()[:32*train.SampleDim()], 32, train.SampleDim())
	y := train.Y[:32]
	eng.ForwardBackward(x, y)
	sgd.StepAndZero()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ForwardBackward(x, y)
		sgd.StepAndZero()
	}
}

// TestTrainStepAllocFree pins the steady-state zero-allocation contract of
// the full training step (engine compute + fused optimizer).
func TestTrainStepAllocFree(t *testing.T) {
	net, train := trainFixture()
	sgd := tengine.NewSGD(net.Params(), 0.05, 0.9, 1e-4)
	eng := tengine.MustCompile(net, tengine.Options{Workers: 1, MaxBatch: 32})
	x := tensor.FromSlice(train.X.Data()[:32*train.SampleDim()], 32, train.SampleDim())
	y := train.Y[:32]
	eng.ForwardBackward(x, y)
	sgd.StepAndZero()
	if a := testing.AllocsPerRun(10, func() {
		eng.ForwardBackward(x, y)
		sgd.StepAndZero()
	}); a != 0 {
		t.Errorf("training step allocates %.1f objects/op, want 0", a)
	}
}

// BenchmarkRetrainEpochEngine is one RetrainAround-style epoch through the
// compiled plan and the reusable batch iterator.
func BenchmarkRetrainEpochEngine(b *testing.B) {
	net, train := trainFixture()
	sgd := tengine.NewSGD(net.Params(), 0.01, 0.9, 0)
	eng := tengine.MustCompile(net, tengine.Options{Workers: 1, MaxBatch: 32})
	it := train.BatchIterator(32)
	r := rng.New(3)
	eng.ForwardBackward(tensor.FromSlice(train.X.Data()[:32*train.SampleDim()], 32, train.SampleDim()), train.Y[:32])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Reset(r)
		for {
			bx, by, ok := it.Next()
			if !ok {
				break
			}
			eng.ForwardBackward(bx, by)
			sgd.StepAndZero()
		}
	}
}

// otpNets builds the clean/faulty pair for the O-TP synthesis benchmarks.
func otpNets() (*nn.Network, *nn.Network) {
	clean := models.MLP(rng.New(13), 64, []int{48}, 10)
	faulty := faults.MakeFaulty(clean, faults.LogNormal{Sigma: 0.4}, 11)
	return clean, faulty
}

// BenchmarkOTPSynthesisEngine runs Algorithm 1's optimization loop (20
// iterations, convergence thresholds disabled) through two compiled plans
// with input-gradient taps — the path GenerateOTP uses.
func BenchmarkOTPSynthesisEngine(b *testing.B) {
	clean, faulty := otpNets()
	ce := tengine.MustCompile(clean, tengine.Options{Workers: 1, MaxBatch: 10, InputGrad: true, NoParamGrads: true})
	fe := tengine.MustCompile(faulty, tengine.Options{Workers: 1, MaxBatch: 10, InputGrad: true, NoParamGrads: true})
	soft := nn.UniformLabels(10, 10)
	labels := make([]int, 10)
	for j := range labels {
		labels[j] = j
	}
	hard := nn.OneHot(labels, 10)
	x := tensor.RandUniform(rng.New(5), 0, 1, 10, 64)
	const lr, alpha = 0.5, 0.5
	ce.ForwardBackwardSoft(x, soft)
	fe.ForwardBackwardSoft(x, hard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for iter := 0; iter < 20; iter++ {
			ce.ForwardBackwardSoft(x, soft)
			fe.ForwardBackwardSoft(x, hard)
			xd, d1, d2 := x.Data(), ce.InputGrad().Data(), fe.InputGrad().Data()
			for i := range xd {
				xd[i] -= lr * (alpha*d1[i] + (1-alpha)*d2[i])
				if xd[i] < 0 {
					xd[i] = 0
				} else if xd[i] > 1 {
					xd[i] = 1
				}
			}
		}
	}
}
