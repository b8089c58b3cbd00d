package testgen

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// trainedToy returns a small trained classifier and its datasets — shared by
// the generator tests, trained once.
func trainedToy(t *testing.T) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultDigitsConfig(600)
	train := dataset.SynthDigits(100, cfg)
	net := models.MLP(rng.New(3), train.SampleDim(), []int{48}, 10)
	sgd := tengine.NewSGD(net.Params(), 0.05, 0.9, 0)
	eng := tengine.MustCompile(net, tengine.Options{MaxBatch: 32})
	r := rng.New(4)
	it := train.BatchIterator(32)
	for epoch := 0; epoch < 4; epoch++ {
		it.Reset(r)
		for x, y, ok := it.Next(); ok; x, y, ok = it.Next() {
			eng.ForwardBackward(x, y) // batches are never empty
			sgd.StepAndZero()
		}
	}
	return net, dataset.SynthDigits(101, dataset.DefaultDigitsConfig(300))
}

func TestRankByLogitStdSorted(t *testing.T) {
	net, pool := trainedToy(t)
	idx, scores := RankByLogitStd(net, pool)
	if len(idx) != pool.N() || len(scores) != pool.N() {
		t.Fatalf("rank lengths %d/%d", len(idx), len(scores))
	}
	if !sort.Float64sAreSorted(scores) {
		t.Fatal("scores not ascending")
	}
	// idx must be a permutation
	seen := make([]bool, pool.N())
	for _, i := range idx {
		if seen[i] {
			t.Fatal("duplicate index in ranking")
		}
		seen[i] = true
	}
}

func TestSelectCTPPicksFlattestLogits(t *testing.T) {
	net, pool := trainedToy(t)
	p := SelectCTP(net, pool, 10)
	if p.M() != 10 || p.Method != "ctp" {
		t.Fatalf("bad pattern set %+v", p)
	}
	// every selected pattern's logit std must be ≤ the pool median
	_, scores := RankByLogitStd(net, pool)
	median := scores[len(scores)/2]
	eng := engine.MustCompile(net, engine.Options{})
	for i := 0; i < p.M(); i++ {
		x := tensor.FromSlice(p.X.Data()[i*p.Dim():(i+1)*p.Dim()], 1, p.Dim())
		logits, err := eng.ForwardBatch(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		std := tensor.FromSlice(logits.Data(), logits.Len()).Std()
		if std > median {
			t.Fatalf("C-TP pattern %d has logit std %v above pool median %v", i, std, median)
		}
	}
}

func TestSelectCTPBadCountPanics(t *testing.T) {
	net, pool := trainedToy(t)
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 did not panic")
		}
	}()
	SelectCTP(net, pool, 0)
}

func TestGenerateAETPerturbationBounded(t *testing.T) {
	net, pool := trainedToy(t)
	cfg := AETConfig{Epsilon: 0.08, Clamp: true}
	p := GenerateAET(net, pool, 20, cfg, rng.New(7))
	if p.M() != 20 || p.Method != "aet" {
		t.Fatalf("bad AET set %+v", p)
	}
	if p.X.Min() < 0 || p.X.Max() > 1 {
		t.Fatal("AET patterns left the pixel box")
	}
	// each pattern differs from SOME source image by at most ε per pixel;
	// verify against its recorded source label's consistency instead: the
	// perturbation magnitude per pixel never exceeds ε.
	// Reconstruct: the pattern must be within ε (plus clamping) of an
	// original pool image. Check min-L∞ against the whole pool.
	dim := pool.SampleDim()
	for i := 0; i < 3; i++ { // spot-check a few patterns
		pd := p.X.Data()[i*dim : (i+1)*dim]
		best := math.Inf(1)
		for s := 0; s < pool.N(); s++ {
			sd := pool.X.Data()[s*dim : (s+1)*dim]
			worst := 0.0
			for j := range pd {
				if d := math.Abs(pd[j] - sd[j]); d > worst {
					worst = d
				}
			}
			if worst < best {
				best = worst
			}
		}
		if best > cfg.Epsilon+1e-9 {
			t.Fatalf("AET pattern %d is %.4f from nearest source, ε=%v", i, best, cfg.Epsilon)
		}
	}
}

func TestGenerateAETDeterministic(t *testing.T) {
	net, pool := trainedToy(t)
	a := GenerateAET(net, pool, 5, DefaultAETConfig(), rng.New(9))
	b := GenerateAET(net, pool, 5, DefaultAETConfig(), rng.New(9))
	if !a.X.Equal(b.X) {
		t.Fatal("AET not deterministic for fixed seed")
	}
}

func TestGenerateOTPDrivesCleanModelToUniform(t *testing.T) {
	net, _ := trainedToy(t)
	ref := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.4}, 11)
	cfg := DefaultOTPConfig()
	cfg.MaxIters = 400
	p, res := GenerateOTP(net, ref, 10, cfg, rng.New(13))
	if p.M() != 10 || p.Method != "otp" {
		t.Fatalf("bad OTP set %+v", p)
	}
	if p.X.Min() < 0 || p.X.Max() > 1 {
		t.Fatal("OTP patterns left the pixel box")
	}
	// the clean model must be far more confused by OTP than by random noise
	noise := tensor.RandUniform(rng.New(14), 0, 1, 10, p.Dim())
	if flat, rand := meanProbStd(net, p.X), meanProbStd(net, noise); flat >= rand/2 {
		t.Fatalf("OTP flatness %v not clearly below random-noise flatness %v", flat, rand)
	}
	if res.Iters == 0 {
		t.Fatal("no iterations recorded")
	}
	if len(res.CleanStd) != 10 || len(res.FaultL1) != 10 {
		t.Fatalf("result stats lengths %d/%d", len(res.CleanStd), len(res.FaultL1))
	}
}

func TestGenerateOTPLabelsCycleClasses(t *testing.T) {
	net, _ := trainedToy(t)
	ref := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.4}, 15)
	cfg := DefaultOTPConfig()
	cfg.MaxIters = 30
	cfg.PerClass = 2
	p, _ := GenerateOTP(net, ref, 10, cfg, rng.New(17))
	if p.M() != 20 {
		t.Fatalf("PerClass=2 over 10 classes gave %d patterns", p.M())
	}
	for i, y := range p.Labels {
		if y != i%10 {
			t.Fatalf("label[%d]=%d, want %d", i, y, i%10)
		}
	}
}

func meanProbStd(net *nn.Network, x *tensor.Tensor) float64 {
	probs := engine.MustCompile(net, engine.Options{}).Probs(x)
	m, k := probs.Dim(0), probs.Dim(1)
	sum := 0.0
	for i := 0; i < m; i++ {
		sum += tensor.FromSlice(probs.Data()[i*k:(i+1)*k], k).Std()
	}
	return sum / float64(m)
}

func TestSelectPlain(t *testing.T) {
	_, pool := trainedToy(t)
	p := SelectPlain(pool, 7)
	if p.M() != 7 || p.Method != "plain" {
		t.Fatalf("bad plain set %+v", p)
	}
	if !tensor.FromSlice(p.X.Data(), 7*p.Dim()).Equal(tensor.FromSlice(pool.X.Data()[:7*p.Dim()], 7*p.Dim())) {
		t.Fatal("plain patterns differ from pool head")
	}
}

func TestPatternSetHead(t *testing.T) {
	_, pool := trainedToy(t)
	p := SelectPlain(pool, 10)
	h := p.Head(4)
	if h.M() != 4 || len(h.Labels) != 4 {
		t.Fatalf("Head(4) gave %d patterns", h.M())
	}
	clear(h.X.Data())
	if p.X.Sum() == 0 {
		t.Fatal("Head shares storage")
	}
	if big := p.Head(99); big.M() != 10 {
		t.Fatalf("Head(99) of 10 gave %d", big.M())
	}
}

func TestPatternSetSaveLoadRoundTrip(t *testing.T) {
	_, pool := trainedToy(t)
	p := SelectPlain(pool, 5)
	p.Labels = []int{4, 3, 2, 1, 0}
	path := filepath.Join(t.TempDir(), "p.bin")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPatternSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Method != p.Method {
		t.Fatalf("metadata mismatch: %q/%q", q.Name, q.Method)
	}
	if !q.X.Equal(p.X) {
		t.Fatal("pattern data mismatch after round trip")
	}
	for i := range p.Labels {
		if q.Labels[i] != p.Labels[i] {
			t.Fatal("labels mismatch after round trip")
		}
	}
}

func TestLoadPatternSetRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(path, []byte("not a pattern set"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPatternSet(path); err == nil {
		t.Fatal("garbage file loaded without error")
	}
	// every cut of a valid file and an absurd name length are refused too,
	// and so are a missing file and an unwritable one
	p := &PatternSet{Name: "n", Method: "plain", X: tensor.New(2, 3), Labels: []int{1, 0}}
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{append(append(append([]byte{}, good[:4]...), 0, 0, 2, 0), good[8:]...)}
	for n := 0; n < len(good); n++ {
		bad = append(bad, good[:n])
	}
	for _, b := range bad {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPatternSet(path); err == nil {
			t.Errorf("%d-byte file loaded without error", len(b))
		}
	}
	if _, err := LoadPatternSet(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file loaded without error")
	}
	if err := p.Save(filepath.Join(path, "p.bin")); err == nil {
		t.Error("pattern set saved under a regular file")
	}
}

// TestLoadPatternSetRejectsCorruptContent: a header that claims more (or
// fewer) patterns than the file holds is refused before anything is
// allocated, however large the claim or its product with the dimension, and
// so are a negative label and a non-finite value. Every refusal names the
// file.
func TestLoadPatternSetRejectsCorruptContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.bin")
	p := &PatternSet{Name: "n", Method: "plain", X: tensor.New(2, 3), Labels: []int{1, 0}}
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic, two length-prefixed strings, then the pattern count, the
	// dimension, the labels and the values
	const mAt = 4 + 4 + len("n") + 4 + len("plain")
	const dAt, labelsAt = mAt + 4, mAt + 8
	const valuesAt = labelsAt + 2*4
	patch := func(at int, b ...byte) []byte {
		out := append([]byte{}, good...)
		copy(out[at:], b)
		return out
	}
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	inf := make([]byte, 8)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(-1)))
	for name, b := range map[string][]byte{
		"three rows":           patch(mAt, 3, 0, 0, 0),
		"one row":              patch(mAt, 1, 0, 0, 0),
		"max rows":             patch(mAt, 0xff, 0xff, 0xff, 0xff),
		"max dimension":        patch(dAt, 0xff, 0xff, 0xff, 0xff),
		"overflowing product":  patch(mAt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		"trailing byte":        append(append([]byte{}, good...), 0),
		"negative label":       patch(labelsAt+4, 0xff, 0xff, 0xff, 0xff),
		"NaN value":            patch(valuesAt+8, nan...),
		"infinite value":       patch(valuesAt+5*8, inf...),
		"dimension for no row": patch(mAt, 0, 0, 0, 0),
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadPatternSet(path)
		if err == nil {
			t.Errorf("%s: loaded without error", name)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
}

func TestWritePGM(t *testing.T) {
	_, pool := trainedToy(t)
	p := SelectPlain(pool, 2)
	path := filepath.Join(t.TempDir(), "img.pgm")
	if err := p.WritePGM(path, 0, 1, 28, 28); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:2]) != "P5" {
		t.Fatalf("PGM magic %q", data[:2])
	}
	// header + 784 pixel bytes
	if len(data) < 784 {
		t.Fatalf("PGM too small: %d bytes", len(data))
	}
	if err := p.WritePGM(path, 5, 1, 28, 28); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := p.WritePGM(path, 0, 3, 28, 28); err == nil {
		t.Fatal("wrong shape accepted")
	}
}

func TestInputGradientMatchesNumeric(t *testing.T) {
	net, pool := trainedToy(t)
	x := pool.Input(0).Clone()
	labels := []int{pool.Y[0]}
	grad := InputGradient(net, x, labels)
	// the loss through the inference plan and the loss kernel
	eng := engine.MustCompile(net, engine.Options{})
	loss := func() float64 {
		logits, err := eng.ForwardBatch(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		return nn.CrossEntropyInto(tensor.New(logits.Shape()...), logits, labels)
	}
	xd := x.Data()
	const h = 1e-6
	for _, i := range []int{0, 100, 400, 783} {
		orig := xd[i]
		xd[i] = orig + h
		lp := loss()
		xd[i] = orig - h
		lm := loss()
		xd[i] = orig
		want := (lp - lm) / (2 * h)
		if got := grad.Data()[i]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("input grad[%d]=%v, numeric %v", i, got, want)
		}
	}
}
