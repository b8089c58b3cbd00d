package tengine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"reramtest/internal/nn"
	"reramtest/internal/opt"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// goldenGradsFixture pins the training plan's output bits: per model × batch
// size, a SHA-256 over every Param.Grad after one ForwardBackward and over
// every Param.Value after five momentum-SGD steps. TestForwardBackwardMatchesLegacy
// and TestTrainingRunBitIdentical compare the engine against live per-layer
// code that shares kernels with it; this file is the proof that survives an
// edit to either side. Regenerate only when a summation order is changed on
// purpose:
//
//	TENGINE_REGEN_FIXTURES=1 go test ./internal/tengine -run GoldenGradsFixture
const goldenGradsFixture = "testdata/golden_grads.json"

// paramDigest hashes the IEEE-754 bit patterns of one tensor of every
// parameter, in Params() order.
func paramDigest(ps []*nn.Param, pick func(*nn.Param) *tensor.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range ps {
		for _, v := range pick(p).Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenGradsFixture(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	grad := func(p *nn.Param) *tensor.Tensor { return p.Grad }
	value := func(p *nn.Param) *tensor.Tensor { return p.Value }
	digests := map[string]string{}
	for _, m := range seedModels()[:3] { // lenet5, convnet7, the stock MLP
		for _, n := range []int{1, 8} {
			// run returns the gradient digest after the first step and the
			// weight digest after the fifth
			run := func(opts tengine.Options) (string, string) {
				net := m.build(rng.New(11))
				opts.MaxBatch = n
				eng := tengine.MustCompile(net, opts)
				sgd := opt.NewSGD(net.Params(), 0.05, 0.9, 1e-4)
				var g string
				for step := 0; step < 5; step++ {
					x, labels := randBatch(int64(200+10*n+step), n, net.InDim(), m.classes)
					if _, err := eng.ForwardBackward(x, labels); err != nil {
						t.Fatal(err)
					}
					if step == 0 {
						g = paramDigest(net.Params(), grad)
					}
					sgd.StepAndZero()
				}
				return g, paramDigest(net.Params(), value)
			}
			g, w := run(tengine.Options{Workers: 1})
			pg, pw := run(tengine.Options{Pool: pool})
			key := fmt.Sprintf("%s/n%d", m.name, n)
			if pg != g || pw != w {
				t.Fatalf("%s: pooled engine digests (%s, %s) != serial (%s, %s)", key, pg, pw, g, w)
			}
			digests[key+"/grads-step1"] = g
			digests[key+"/weights-step5"] = w
		}
	}
	got, err := json.MarshalIndent(digests, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("TENGINE_REGEN_FIXTURES") != "" {
		if err := os.WriteFile(goldenGradsFixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenGradsFixture)
		return
	}
	want, err := os.ReadFile(goldenGradsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("f64 training plan diverged from the pinned bits\ngot:\n%s\nwant:\n%s", got, want)
	}
}
