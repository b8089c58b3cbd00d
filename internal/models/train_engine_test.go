package models

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/rng"
)

// legacyTrainDigests are the weight digests (SHA-256 of every weight's bits,
// in Params() order) the pre-engine Train loop produced on
// TestTrainEngineMatchesLegacy's input, without and with label smoothing:
// slice-of-batches iteration, whole-batch layer-wise Forward/Backward,
// smoothed labels rebuilt per batch, Step without fused zeroing. They were
// taken before the per-layer methods were deleted.
var legacyTrainDigests = map[float64]string{
	0:   "4227a0d9ee09632f181d51a8f3cfc5c3afff55b13c62e1ec15ba667590cd3501",
	0.1: "a76300545b60699af94234fbb2542fa91ff290bd0fa3187dfb6eccf5ab1a91d7",
}

// TestTrainEngineMatchesLegacy: Train (compiled engine + reusable batch
// iterator + fused optimizer step) must reproduce the legacy loop's final
// weights to the last bit, with and without label smoothing.
func TestTrainEngineMatchesLegacy(t *testing.T) {
	train := dataset.SynthDigits(42, dataset.DefaultDigitsConfig(80))
	for smooth, want := range legacyTrainDigests {
		cfg := TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9,
			Decay: 1e-4, LRStep: 1, LabelSmooth: smooth, Seed: 7}
		net := MLP(rng.New(6), train.SampleDim(), []int{32}, train.Classes)
		if err := Train(context.Background(), net, train, cfg); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, p := range net.Params() {
			for _, v := range p.Value.Data() {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("smooth=%v: weights digest %s, legacy loop %s", smooth, got, want)
		}
	}
}
