package repair

import (
	"context"
	"strings"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
)

// mustHarden runs drop-connect hardening (models.Train under cfg.DropP),
// fails t on error, and returns net's accuracy on train afterwards.
func mustHarden(t *testing.T, net *nn.Network, train *dataset.Dataset, cfg models.TrainConfig) float64 {
	t.Helper()
	if err := models.Train(context.Background(), net, train, cfg); err != nil {
		t.Fatal(err)
	}
	return accuracy(net, train)
}

func TestHardenDropConnectKeepsAccuracy(t *testing.T) {
	net, train := trainToy(t)
	before := accuracy(net, train)
	cfg := DefaultHardenConfig()
	cfg.Epochs = 2
	cfg.DropP = 0.15
	after := mustHarden(t, net, train, cfg)
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
	mustHarden(t, hardened, train, hcfg)
	// matched-compute control: the same schedule with masking off
	pcfg := hcfg
	pcfg.DropP = 0
	mustHarden(t, plain, train, pcfg)

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

// hardenDigest is retrainDigest of the hardened weights and their accuracy
// on train for TestHardenDropConnectBitIdentical's input, taken while
// hardening still ran its own copy of the training loop. It pins the RNG
// order as well as the arithmetic: the drop-connect mask stream is split off
// the seed before the first epoch's shuffle draws from it.
const hardenDigest = "6c74ae1a142a74d5a44b6758efad819cf2fc49843b08be68544a0a2872f7c28d"

// TestHardenDropConnectBitIdentical holds models.Train under
// DefaultHardenConfig to the pinned digest, as TestRetrainEngineMatchesLegacy
// holds the retrain loop.
func TestHardenDropConnectBitIdentical(t *testing.T) {
	train := dataset.SynthDigits(82, dataset.DefaultDigitsConfig(64))
	net := buildToyNet(train)
	cfg := DefaultHardenConfig()
	cfg.BatchSize = 16
	acc := mustHarden(t, net, train, cfg)
	if d := retrainDigest(net, acc); d != hardenDigest {
		t.Fatalf("hardening digest %s (accuracy %v), pinned %s", d, acc, hardenDigest)
	}
}
