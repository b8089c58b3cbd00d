package testgen

import (
	"fmt"
	"math"

	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// The convergence bounds of Algorithm 1, the paper's published ε₁ = ε₂.
const (
	// eps1 bounds the standard deviation of the clean model's output
	// confidences: below it the clean model is "extremely confused".
	eps1 = 1e-3
	// eps2 bounds the L1 distance between the fault model's confidences and
	// the hard target: below it the fault model is "very confident".
	eps2 = 1e-3
)

// OTPConfig holds the tunable hyper-parameters of Algorithm 1.
type OTPConfig struct {
	// Alpha weighs the clean-model soft-label term against the fault-model
	// hard-label term in Eq. 1; the paper uses 0.5 (equal importance).
	Alpha float64
	// LR is the gradient-descent step size on the input.
	LR float64
	// MaxIters bounds the optimization loop.
	MaxIters int
	// PerClass is k, the number of patterns per class; the paper finds k = 1
	// suffices, giving n patterns for an n-class problem.
	PerClass int
}

// DefaultOTPConfig returns the paper's published α = 0.5 with a step size
// and iteration budget that converge on both evaluation models under the
// fixed ε₁ = ε₂ = 1e-3.
func DefaultOTPConfig() OTPConfig {
	return OTPConfig{Alpha: 0.5, LR: 0.5, MaxIters: 600, PerClass: 1}
}

// OTPResult reports how Algorithm 1 converged.
type OTPResult struct {
	Iters     int       // iterations actually run
	Converged bool      // both ε constraints met before MaxIters
	CleanStd  []float64 // final per-pattern std of clean-model confidences
	FaultL1   []float64 // final per-pattern L1 distance to the hard target
	FinalLoss float64   // final combined Eq. 1 loss
}

// GenerateOTP runs Algorithm 1: starting from uniform random noise, it
// optimizes k·n input patterns so the clean model outputs a near-uniform
// confidence vector on each (no bias toward any weights, hence free to
// respond to any error) while the reference fault model confidently assigns
// pattern (c, j) to class c (accumulated error pushes confidences toward a
// hard decision). Pattern updates are plain gradient descent on the combined
// cross-entropy loss of Eq. 1, clamped to the valid pixel box [0, 1].
//
// faulty is a representative fault model f_{w'} (the paper derives it from
// the clean model with its programming-variation injector); it steers the
// patterns toward directions in which accumulating weight errors move the
// outputs, and is needed only at generation time in the cloud.
func GenerateOTP(clean, faulty *nn.Network, classes int, cfg OTPConfig, r *rng.RNG) (*PatternSet, OTPResult) {
	if classes <= 1 {
		panic(fmt.Sprintf("testgen: GenerateOTP needs ≥2 classes, got %d", classes))
	}
	if cfg.PerClass <= 0 {
		cfg.PerClass = 1
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 600
	}
	m := classes * cfg.PerClass
	dim := clean.InDim()

	// line 4 of Algorithm 1: random-noise initial patterns in the input box
	x := tensor.RandUniform(r, 0, 1, m, dim)
	labels := make([]int, m)
	for j := range labels {
		labels[j] = j % classes
	}
	soft := nn.UniformLabels(m, classes) // l: equal confidence for all classes
	hard := nn.OneHot(labels, classes)   // l': one hard label per pattern

	// the optimization loop runs up to 600 full forward+backward iterations;
	// compiled train plans with an input-gradient tap keep every one of them
	// allocation-free (otp_engine_test.go pins the run's bits)
	ce := tengine.MustCompile(clean, tengine.Options{MaxBatch: m, InputGrad: true, NoParamGrads: true})
	fe := tengine.MustCompile(faulty, tengine.Options{MaxBatch: m, InputGrad: true, NoParamGrads: true})
	pClean := tensor.New(m, classes) // reused softmax buffers for convergence
	pFault := tensor.New(m, classes)

	res := OTPResult{CleanStd: make([]float64, m), FaultL1: make([]float64, m)}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		// term 1: clean model vs uniform soft labels (m > 0: never empty)
		loss1, _ := ce.ForwardBackwardSoft(x, soft)
		// term 2: fault model vs hard labels
		loss2, _ := fe.ForwardBackwardSoft(x, hard)

		// combined Eq. 1 gradient step, projected back into the pixel box
		xd, d1, d2 := x.Data(), ce.InputGrad().Data(), fe.InputGrad().Data()
		for i := range xd {
			xd[i] -= cfg.LR * (cfg.Alpha*d1[i] + (1-cfg.Alpha)*d2[i])
			if xd[i] < 0 {
				xd[i] = 0
			} else if xd[i] > 1 {
				xd[i] = 1
			}
		}
		res.Iters = iter
		res.FinalLoss = cfg.Alpha*loss1 + (1-cfg.Alpha)*loss2

		// line 16: convergence when the clean outputs are flat and the fault
		// outputs match the hard target
		pClean.CopyFrom(ce.Logits())
		nn.SoftmaxInPlace(pClean)
		pFault.CopyFrom(fe.Logits())
		nn.SoftmaxInPlace(pFault)
		if converged(pClean, pFault, hard, classes, &res) {
			res.Converged = true
			break
		}
	}
	name := fmt.Sprintf("otp-%s-%d", clean.Name(), m)
	return &PatternSet{Name: name, Method: "otp", X: x, Labels: labels}, res
}

// converged evaluates the two ε constraints on softmax confidences and
// records the per-pattern statistics in res. The per-row standard deviation
// is computed inline with tensor.Std's exact loop (mean, then population
// variance) so the check stays allocation-free without moving a bit.
func converged(pClean, pFault, hard *tensor.Tensor, classes int, res *OTPResult) bool {
	m := pClean.Dim(0)
	cd, fd, hd := pClean.Data(), pFault.Data(), hard.Data()
	ok := true
	for j := 0; j < m; j++ {
		row := cd[j*classes : (j+1)*classes]
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		mean := sum / float64(classes)
		sq := 0.0
		for _, v := range row {
			d := v - mean
			sq += d * d
		}
		res.CleanStd[j] = math.Sqrt(sq / float64(classes))
		l1 := 0.0
		for c := 0; c < classes; c++ {
			l1 += math.Abs(fd[j*classes+c] - hd[j*classes+c])
		}
		l1 /= float64(classes)
		res.FaultL1[j] = l1
		if res.CleanStd[j] >= eps1 || l1 >= eps2 {
			ok = false
		}
	}
	return ok
}
