package repair

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
)

// maskSomeWeights marks ~frac of every weight tensor as stuck at value v.
func maskSomeWeights(net *nn.Network, frac, v float64, seed int64) StuckMask {
	r := rng.New(seed)
	stuck := make(StuckMask)
	for _, p := range net.Params() {
		mask := make([]bool, p.Value.Len())
		if strings.HasSuffix(p.Name, ".weight") {
			d := p.Value.Data()
			for j := range d {
				if r.Bernoulli(frac) {
					d[j] = v
					mask[j] = true
				}
			}
		}
		stuck[p.Name] = mask
	}
	return stuck
}

// legacyRetrainDigest is retrainDigest of the pre-engine RetrainAround loop
// on TestRetrainEngineMatchesLegacy's input — slice-of-batches iteration,
// layer-wise Forward/Backward, freeze, unfused Step, restore — taken before
// the per-layer methods were deleted.
const legacyRetrainDigest = "a3a1ff384958a845fc300b2b458c28cef4229cd9e48b0a8596cace30c64517e3"

// retrainDigest is the SHA-256 of every weight's bits, in Params() order,
// then of the accuracy on the training set.
func retrainDigest(net *nn.Network, acc float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, p := range net.Params() {
		put(p.Value.Data()...)
	}
	put(acc)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRetrainEngineMatchesLegacy: RetrainAround on the compiled engine must
// reproduce the legacy loop's final weights and accuracy bit-for-bit,
// including the freeze→step→restore interaction with momentum — which the
// pinned digest of the legacy run holds it to.
func TestRetrainEngineMatchesLegacy(t *testing.T) {
	train := dataset.SynthDigits(80, dataset.DefaultDigitsConfig(64))
	net := buildToyNet(train)
	stuck := maskSomeWeights(net, 0.15, 0, 21)
	cfg := models.TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.01, Momentum: 0.9, Seed: 17}
	acc := mustRetrain(t, net, stuck, train, cfg)
	if d := retrainDigest(net, acc); d != legacyRetrainDigest {
		t.Fatalf("retrain digest %s (accuracy %v), legacy loop %s", d, acc, legacyRetrainDigest)
	}
}

func buildToyNet(train *dataset.Dataset) *nn.Network {
	return models.MLP(rng.New(12), train.SampleDim(), []int{32}, train.Classes)
}

// TestRetrainStuckFrozenUnderMomentum is the regression the freeze/restore
// sandwich exists for: with momentum enabled, velocity accumulated before a
// cell's gradient is zeroed could still drift the weight on later steps. The
// stuck cells carry a distinctive nonzero fault value and must hold it to the
// exact bit through a multi-epoch engine-driven retrain.
func TestRetrainStuckFrozenUnderMomentum(t *testing.T) {
	train := dataset.SynthDigits(81, dataset.DefaultDigitsConfig(64))
	net := buildToyNet(train)
	const faultVal = 0.4375 // exactly representable, unmistakably nonzero
	stuck := maskSomeWeights(net, 0.2, faultVal, 22)
	cfg := models.TrainConfig{Epochs: 3, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 5}
	mustRetrain(t, net, stuck, train, cfg)
	frozen, moved := 0, 0
	for _, p := range net.Params() {
		mask := stuck[p.Name]
		d := p.Value.Data()
		for j, s := range mask {
			if !s {
				continue
			}
			frozen++
			if d[j] != faultVal {
				moved++
			}
		}
	}
	if frozen == 0 {
		t.Fatal("mask marked no cells; test is vacuous")
	}
	if moved != 0 {
		t.Fatalf("%d of %d stuck cells drifted off their fault value under momentum", moved, frozen)
	}
}
