package tengine_test

import (
	"strings"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

func dcToy(seed int64) (*nn.Network, *dataset.Dataset) {
	train := dataset.SynthDigits(40, dataset.DefaultDigitsConfig(200))
	net := models.MLP(rng.New(seed), train.SampleDim(), []int{20}, 10)
	return net, train
}

// Drop-connect training must be bit-identical between a serial engine and a
// pooled one: masks are drawn serially outside the kernels, and the engine's
// fixed-order folds guarantee the rest.
func TestDropConnectSerialPooledBitIdentical(t *testing.T) {
	runDC := func(workers int) *nn.Network {
		net, train := dcToy(51)
		eng := tengine.MustCompile(net, tengine.Options{MaxBatch: 16, Workers: workers})
		dc := tengine.NewDropConnect(eng, 0.2, rng.New(52))
		sgd := opt.NewSGD(net.Params(), 0.05, 0.9, 0)
		it := train.BatchIterator(16)
		it.Reset(rng.New(53))
		for i := 0; i < 12; i++ {
			bx, by, ok := it.Next()
			if !ok {
				it.Reset(rng.New(int64(54 + i)))
				continue
			}
			dc.Step(bx, by)
			sgd.StepAndZero()
		}
		return net
	}
	serial, pooled := runDC(1), runDC(4)
	sp, pp := serial.Params(), pooled.Params()
	for i := range sp {
		sd, pd := sp[i].Value.Data(), pp[i].Value.Data()
		for j := range sd {
			if sd[j] != pd[j] {
				t.Fatalf("param %s[%d]: serial %v != pooled %v", sp[i].Name, j, sd[j], pd[j])
			}
		}
	}
}

// A step must leave the weights exactly as it found them (masking restored)
// — the optimizer, not the mask, is the only thing that moves weights.
func TestDropConnectStepRestoresWeights(t *testing.T) {
	net, train := dcToy(55)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: 16})
	dc := tengine.NewDropConnect(eng, 0.3, rng.New(56))
	before := net.Clone()
	bx, by, _ := func() (*tensor.Tensor, []int, bool) {
		it := train.BatchIterator(16)
		it.Reset(rng.New(57))
		return it.Next()
	}()
	dc.Step(bx, by)
	bp, ap := before.Params(), net.Params()
	for i := range ap {
		bd, ad := bp[i].Value.Data(), ap[i].Value.Data()
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("step moved weight %s[%d]: %v → %v", ap[i].Name, j, bd[j], ad[j])
			}
		}
	}
}

// Dropped positions must receive zero gradient: with p≈1 every weight is
// dropped every step, so weight gradients are all zero while bias gradients
// (never masked) still flow.
func TestDropConnectZeroesDroppedGradients(t *testing.T) {
	net, train := dcToy(58)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: 16})
	dc := tengine.NewDropConnect(eng, 0.999999, rng.New(59))
	it := train.BatchIterator(16)
	it.Reset(rng.New(60))
	bx, by, _ := it.Next()
	dc.Step(bx, by)
	sawBiasGrad := false
	for _, p := range net.Params() {
		g := p.Grad.Data()
		if strings.HasSuffix(p.Name, ".weight") {
			for j := range g {
				if g[j] != 0 {
					t.Fatalf("dropped weight %s[%d] has gradient %v", p.Name, j, g[j])
				}
			}
		} else {
			for j := range g {
				if g[j] != 0 {
					sawBiasGrad = true
				}
			}
		}
	}
	if !sawBiasGrad {
		t.Fatal("bias gradients were masked too")
	}
}

func TestDropConnectSteadyStateAllocs(t *testing.T) {
	net, train := dcToy(61)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: 16, Workers: 1})
	dc := tengine.NewDropConnect(eng, 0.2, rng.New(62))
	it := train.BatchIterator(16)
	it.Reset(rng.New(63))
	bx, by, _ := it.Next()
	dc.Step(bx, by) // warm up workspaces
	if allocs := testing.AllocsPerRun(20, func() { dc.Step(bx, by) }); allocs != 0 {
		t.Fatalf("drop-connect step allocates %v/op in steady state", allocs)
	}
}

func TestDropConnectRejectsBadP(t *testing.T) {
	net, _ := dcToy(64)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: 4})
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%g accepted", p)
				}
			}()
			tengine.NewDropConnect(eng, p, rng.New(65))
		}()
	}
}
