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
// size, a SHA-256 over every Param.Grad after one ForwardBackward, over every
// Param.Value after five momentum-SGD steps and after five drop-connect
// steps, and over InputGrad() after one ForwardBackwardSoft against the
// uniform soft label (the O-TP generator's step). Regenerate only when a
// summation order is changed on purpose:
//
//	TENGINE_REGEN_FIXTURES=1 go test ./internal/tengine -run GoldenGradsFixture
const goldenGradsFixture = "testdata/golden_grads.json"

// paramDigest hashes the IEEE-754 bit patterns of one tensor of every
// parameter, in Params() order.
func paramDigest(ps []*nn.Param, pick func(*nn.Param) *tensor.Tensor) string {
	ts := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		ts[i] = pick(p)
	}
	return digest(ts...)
}

// digest hashes the IEEE-754 bit patterns of the tensors, in order.
func digest(ts ...*tensor.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, t := range ts {
		for _, v := range t.Data() {
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
			// inputGrad returns the input-gradient digest after one soft
			// step against the uniform label
			inputGrad := func(opts tengine.Options) string {
				net := m.build(rng.New(13))
				opts.MaxBatch, opts.InputGrad = n, true
				eng := tengine.MustCompile(net, opts)
				x, _ := randBatch(int64(300+n), n, net.InDim(), m.classes)
				if _, err := eng.ForwardBackwardSoft(x, nn.UniformLabels(n, m.classes)); err != nil {
					t.Fatal(err)
				}
				return digest(eng.InputGrad())
			}
			// dropConnect returns the weight digest after five masked steps
			dropConnect := func(opts tengine.Options) string {
				net := m.build(rng.New(17))
				opts.MaxBatch = n
				dc := tengine.NewDropConnect(tengine.MustCompile(net, opts), 0.1, rng.New(19))
				sgd := opt.NewSGD(net.Params(), 0.05, 0.9, 1e-4)
				for step := 0; step < 5; step++ {
					x, labels := randBatch(int64(400+10*n+step), n, net.InDim(), m.classes)
					if _, err := dc.Step(x, labels); err != nil {
						t.Fatal(err)
					}
					sgd.StepAndZero()
				}
				return paramDigest(net.Params(), value)
			}
			serial, pooled := tengine.Options{Workers: 1}, tengine.Options{Pool: pool}
			g, w := run(serial)
			pg, pw := run(pooled)
			key := fmt.Sprintf("%s/n%d", m.name, n)
			if pg != g || pw != w {
				t.Fatalf("%s: pooled engine digests (%s, %s) != serial (%s, %s)", key, pg, pw, g, w)
			}
			ig, dw := inputGrad(serial), dropConnect(serial)
			if pig, pdw := inputGrad(pooled), dropConnect(pooled); pig != ig || pdw != dw {
				t.Fatalf("%s: pooled input-gradient/drop-connect digests (%s, %s) != serial (%s, %s)", key, pig, pdw, ig, dw)
			}
			digests[key+"/grads-step1"] = g
			digests[key+"/weights-step5"] = w
			digests[key+"/inputgrad-soft"] = ig
			digests[key+"/dropconnect-weights-step5"] = dw
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
