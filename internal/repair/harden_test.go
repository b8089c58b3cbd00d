package repair

import (
	"strings"
	"testing"

	"reramtest/internal/nn"
	"reramtest/internal/rng"
)

func TestHardenDropConnectKeepsAccuracy(t *testing.T) {
	net, train := trainToy(t)
	before := accuracy(net, train)
	cfg := DefaultHardenConfig()
	cfg.Epochs = 2
	cfg.DropP = 0.15
	after := HardenDropConnect(net, train, nil, cfg)
	if after < before-0.05 {
		t.Fatalf("hardening degraded accuracy %.2f→%.2f", before, after)
	}
}

func TestHardenDropConnectImprovesFaultTolerance(t *testing.T) {
	// two copies of the same trained model: one hardened, one fine-tuned
	// without masking (same schedule, so compute is matched). Under random
	// SA0-style weight zeroing the hardened model must hold accuracy at
	// least as well on average.
	net, train := trainToy(t)
	plain := net.Clone()
	hardened := net.Clone()

	hcfg := DefaultHardenConfig()
	hcfg.Epochs = 3
	hcfg.DropP = 0.2
	HardenDropConnect(hardened, train, nil, hcfg)
	// matched-compute control: the same schedule with masking off
	pcfg := hcfg
	pcfg.DropP = 0
	HardenDropConnect(plain, train, nil, pcfg)

	// mean accuracy under random SA0 damage, averaged over mask seeds
	damagedAcc := func(model *nn.Network) float64 {
		sum := 0.0
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			victim := model.Clone()
			dr := rng.New(int64(100 + trial))
			for _, p := range victim.Params() {
				if !strings.HasSuffix(p.Name, ".weight") {
					continue
				}
				d := p.Value.Data()
				for j := range d {
					if dr.Bernoulli(0.15) {
						d[j] = 0
					}
				}
			}
			sum += accuracy(victim, train)
		}
		return sum / trials
	}
	ph, pp := damagedAcc(hardened), damagedAcc(plain)
	if ph < pp-0.01 {
		t.Fatalf("hardened model under damage %.3f worse than plain %.3f", ph, pp)
	}
}
