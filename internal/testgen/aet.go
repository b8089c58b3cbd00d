package testgen

import (
	"fmt"

	"reramtest/internal/dataset"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// AETConfig controls the adversarial-example baseline.
type AETConfig struct {
	// Epsilon is the FGSM perturbation magnitude in pixel units.
	Epsilon float64
	// Clamp bounds pixels to [0, 1] after perturbation.
	Clamp bool
}

// DefaultAETConfig matches the RRAMedy-style baseline with the commonly
// cited FGSM strength ε = 0.1. The step pushes the image across the decision
// boundary so it reliably fools the clean model — which is what an
// adversarial *test* wants — but, as the paper's sensitivity analysis
// observes, the fooled prediction is only coarsely coupled to the weights,
// so its confidence drift under small weight errors lags the purpose-built
// C-TP/O-TP patterns.
func DefaultAETConfig() AETConfig { return AETConfig{Epsilon: 0.1, Clamp: true} }

// GenerateAET reproduces the prior-art baseline [9]: m test images are drawn
// uniformly at random from pool and perturbed with the fast gradient sign
// method, x' = x + ε·sign(∇ₓ L(f(x), y)). Adversarial examples sit close to
// decision boundaries, so their outputs respond to weight errors more than
// plain images do — but, as the paper shows, far less sharply than C-TP or
// O-TP.
func GenerateAET(net *nn.Network, pool *dataset.Dataset, m int, cfg AETConfig, r *rng.RNG) *PatternSet {
	if m <= 0 || m > pool.N() {
		panic(fmt.Sprintf("testgen: GenerateAET needs 0 < m ≤ %d, got %d", pool.N(), m))
	}
	perm := r.Perm(pool.N())[:m]
	dim := pool.SampleDim()
	x := tensor.New(m, dim)
	labels := make([]int, m)
	xd, pd := x.Data(), pool.X.Data()
	for j, i := range perm {
		copy(xd[j*dim:(j+1)*dim], pd[i*dim:(i+1)*dim])
		labels[j] = pool.Y[i]
	}
	// one batched FGSM step on the copies
	grad := InputGradient(net, x, labels)
	gd := grad.Data()
	for i := range xd {
		if gd[i] > 0 {
			xd[i] += cfg.Epsilon
		} else if gd[i] < 0 {
			xd[i] -= cfg.Epsilon
		}
	}
	if cfg.Clamp {
		x.ClampInPlace(0, 1)
	}
	return &PatternSet{Name: fmt.Sprintf("aet-%s-%d", pool.Name, m), Method: "aet", X: x, Labels: labels}
}

// InputGradient returns ∇ₓ of the cross-entropy loss of net's logits against
// labels, for a whole (M, D) batch. The network's weight gradients are left
// untouched (the plan is compiled without parameter folds). The batch runs
// through a compiled train plan with an input-gradient tap; the returned
// tensor is a view into the plan's workspace, valid until the plan
// is garbage-collected (it is copied by nothing here, so callers that need
// the values past their next use should Clone).
func InputGradient(net *nn.Network, x *tensor.Tensor, labels []int) *tensor.Tensor {
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: x.Dim(0), InputGrad: true, NoParamGrads: true})
	eng.ForwardBackward(x, labels)
	return eng.InputGrad()
}
