package testgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"reramtest/internal/faults"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// legacyOTPDigest is otpDigest of Algorithm 1 as the per-layer reference
// implementation ran it on TestGenerateOTPMatchesLegacyAlgorithm's input —
// layer-wise Forward/Backward per term, fresh tensors every iteration,
// convergence statistics through tensor.Std on row views — taken before
// that implementation was deleted with the per-layer methods.
const legacyOTPDigest = "5278250f56042b8ed26a51b726e58498dcccf9258586bb7d437cd0967fb2ceb7"

// otpDigest is the SHA-256 of an O-TP run: the patterns' bits, then the
// iteration count, the convergence flag and the final loss, then the
// per-pattern statistics.
func otpDigest(x *tensor.Tensor, res OTPResult) string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	put(x.Data()...)
	conv := 0.0
	if res.Converged {
		conv = 1
	}
	put(float64(res.Iters), conv, res.FinalLoss)
	put(res.CleanStd...)
	put(res.FaultL1...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateOTPMatchesLegacyAlgorithm: the engine-backed GenerateOTP must
// retrace the legacy optimization step for step — identical patterns,
// iteration count, convergence flag, loss and per-pattern statistics, down to
// the last bit — which the pinned digest of the legacy run holds it to.
func TestGenerateOTPMatchesLegacyAlgorithm(t *testing.T) {
	net, _ := trainedToy(t)
	cfg := DefaultOTPConfig()
	cfg.MaxIters = 60 // enough iterations to expose any drift, fast enough for CI
	faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.4}, 33)
	got, res := GenerateOTP(net.Clone(), faulty, 10, cfg, rng.New(55))
	if d := otpDigest(got.X, res); d != legacyOTPDigest {
		t.Fatalf("O-TP run digest %s (%d iters, converged=%v), legacy algorithm %s",
			d, res.Iters, res.Converged, legacyOTPDigest)
	}
}
