package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"reramtest/internal/faults"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// goldenLogitsFixture pins the f64 engine's output bits on every seed
// model: a SHA-256 of the logit bit patterns per model × weight state ×
// batch size, at the batch sizes production uses (8 rows per bench request,
// 64 per monitor tick) and on the weight states a health monitor exists for
// (a stuck-at-0 map is a weight matrix full of exact zeros, the kernels'
// zero-skip path). TestEngineGoldenEquivalence compares the engine against
// live per-layer code that shares kernels with it; this file is the proof
// that survives a kernel edit. Regenerate only when the summation order is
// changed on purpose:
//
//	ENGINE_REGEN_FIXTURES=1 go test ./internal/engine -run GoldenLogitsFixture
const goldenLogitsFixture = "testdata/golden_logits.json"

// paperModels are the two models BenchmarkEngineRow times: seedModels' first
// two entries, LeNet-5 and ConvNet-7.
func paperModels() []struct {
	name  string
	build func(r *rng.RNG) *nn.Network
} {
	return seedModels()[:2]
}

// goldenWeightStates are the fixture's three weight states of one clean
// network, in file order.
func goldenWeightStates(clean *nn.Network) []struct {
	name string
	net  *nn.Network
} {
	return []struct {
		name string
		net  *nn.Network
	}{
		{"pristine", clean},
		{"sa0-10pct", faults.MakeFaulty(clean, faults.StuckAt{P0: 0.10}, 12)},
		{"lognormal-0.5", faults.MakeFaulty(clean, faults.LogNormal{Sigma: 0.5}, 13)},
	}
}

// logitDigest hashes the IEEE-754 bit patterns of t in row-major order.
func logitDigest(t *tensor.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenLogitsFixture(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	digests := map[string]string{}
	for _, m := range seedModels() {
		for _, ws := range goldenWeightStates(m.build(rng.New(11))) {
			serial := MustCompile(ws.net, Options{Workers: 1})
			pooled := MustCompile(ws.net, Options{Pool: pool})
			for _, n := range []int{1, 3, 8, 64} {
				key := fmt.Sprintf("%s/%s/n%d", m.name, ws.name, n)
				x := tensor.RandUniform(rng.New(int64(100+n)), 0, 1, n, ws.net.InDim())
				d := logitDigest(mustForward(t, serial, nil, x))
				if p := logitDigest(mustForward(t, pooled, nil, x)); p != d {
					t.Fatalf("%s: pooled engine digest %s != serial %s", key, p, d)
				}
				digests[key] = d
			}
		}
	}
	got, err := json.MarshalIndent(digests, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("ENGINE_REGEN_FIXTURES") != "" {
		if err := os.WriteFile(goldenLogitsFixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenLogitsFixture)
		return
	}
	want, err := os.ReadFile(goldenLogitsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("f64 engine logits diverged from the pinned bits\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkEngineRow times one f64 engine row (batch 8, serial) on the
// fixture's pristine and stuck-at-0 weight states. The two must read alike:
// a faulty device that serves slower than a healthy one biases the latency
// the fleet's hedging reads. The log line names the register tile that ran
// (avx512, avx2, sse2 or generic), so a recorded number states its kernel.
func BenchmarkEngineRow(b *testing.B) {
	const batch = 8
	for _, m := range paperModels() {
		for _, ws := range goldenWeightStates(m.build(rng.New(11)))[:2] {
			state, _, _ := strings.Cut(ws.name, "-")
			b.Run(m.name+"/"+state, func(b *testing.B) {
				eng := MustCompile(ws.net, Options{Workers: 1, MaxBatch: batch})
				x := tensor.RandUniform(rng.New(5), 0, 1, batch, ws.net.InDim())
				mustForward(b, eng, nil, x)
				if b.N == 1 { // the sizing round: once per result line, without -v
					b.Logf("conv kernel: %s tile", tensor.MatMulBlockedKernel())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustForward(b, eng, nil, x)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/row")
			})
		}
	}
}
