package models

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// logits runs x through a compiled inference plan of net.
func logits(t *testing.T, net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := engine.MustCompile(net, engine.Options{}).ForwardBatch(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mustTrain runs Train under a background context and fails t on error.
func mustTrain(t *testing.T, net *nn.Network, train *dataset.Dataset, cfg TrainConfig) {
	t.Helper()
	if err := Train(context.Background(), net, train, cfg); err != nil {
		t.Fatal(err)
	}
}

// accuracy is net's top-1 accuracy on d, through a compiled inference plan.
func accuracy(net *nn.Network, d *dataset.Dataset) float64 {
	return engine.MustCompile(net, engine.Options{}).Accuracy(d.X, d.Y, 64)
}

func TestLeNet5Architecture(t *testing.T) {
	net := LeNet5(rng.New(1))
	if net.InDim() != 784 {
		t.Fatalf("LeNet-5 input dim %d, want 784", net.InDim())
	}
	// the classic parameter count: 61,706
	if got := net.NumParams(); got != 61706 {
		t.Fatalf("LeNet-5 has %d params, want 61706", got)
	}
	out := logits(t, net, tensor.New(2, 784))
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("LeNet-5 output %v, want (2, 10)", out.Shape())
	}
}

func TestConvNet7Architecture(t *testing.T) {
	net := ConvNet7(rng.New(2))
	if net.InDim() != 3*32*32 {
		t.Fatalf("ConvNet-7 input dim %d", net.InDim())
	}
	// 4 conv + 3 FC weight-bearing layers
	convs, denses := 0, 0
	for _, l := range net.Layers() {
		switch l.(type) {
		case *nn.Conv2D:
			convs++
		case *nn.Dense:
			denses++
		}
	}
	if convs != 4 || denses != 3 {
		t.Fatalf("ConvNet-7 has %d conv + %d FC, want 4 + 3", convs, denses)
	}
	out := logits(t, net, tensor.New(1, 3*32*32))
	if out.Dim(1) != 10 {
		t.Fatalf("ConvNet-7 output width %d", out.Dim(1))
	}
}

func TestMLPShapes(t *testing.T) {
	net := MLP(rng.New(3), 20, []int{8, 4}, 3)
	out := logits(t, net, tensor.New(5, 20))
	if out.Dim(0) != 5 || out.Dim(1) != 3 {
		t.Fatalf("MLP output %v", out.Shape())
	}
	want := 20*8 + 8 + 8*4 + 4 + 4*3 + 3
	if got := net.NumParams(); got != want {
		t.Fatalf("MLP params %d, want %d", got, want)
	}
}

func TestBuildersDeterministic(t *testing.T) {
	a, b := LeNet5(rng.New(7)), LeNet5(rng.New(7))
	for i := range a.Params() {
		if !a.Params()[i].Value.Equal(b.Params()[i].Value) {
			t.Fatal("same seed produced different initial weights")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := MLP(rng.New(4), 6, []int{5}, 3)
	path := filepath.Join(t.TempDir(), "w.bin")
	if err := SaveWeights(path, net); err != nil {
		t.Fatal(err)
	}
	other := MLP(rng.New(99), 6, []int{5}, 3) // different init
	if err := LoadWeights(path, other); err != nil {
		t.Fatal(err)
	}
	for i := range net.Params() {
		if !net.Params()[i].Value.Equal(other.Params()[i].Value) {
			t.Fatalf("param %s differs after round trip", net.Params()[i].Name)
		}
	}
}

func TestLoadWeightsRejectsWrongArchitecture(t *testing.T) {
	net := MLP(rng.New(5), 6, []int{5}, 3)
	path := filepath.Join(t.TempDir(), "w.bin")
	if err := SaveWeights(path, net); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(path, MLP(rng.New(5), 6, []int{4}, 3)); err == nil {
		t.Fatal("loaded weights into mismatched architecture")
	}
	if err := LoadWeights(path, MLP(rng.New(5), 6, []int{5, 2}, 3)); err == nil {
		t.Fatal("loaded weights into network with different param count")
	}
}

func TestLoadWeightsRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(path, MLP(rng.New(6), 4, nil, 2)); err == nil {
		t.Fatal("garbage file loaded without error")
	}
	// every cut of a valid file, a later version and an absurd name length
	// are refused too, and so are a missing file and an unwritable one
	net := MLP(rng.New(6), 4, nil, 2)
	if err := SaveWeights(path, net); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"bad magic":   append([]byte{good[0] ^ 1}, good[1:]...),
		"param name":  append(append(append([]byte{}, good[:16]...), good[16]^1), good[17:]...),
		"version 2":   append(append(append([]byte{}, good[:4]...), 2, 0, 0, 0), good[8:]...),
		"long name":   append(append(append([]byte{}, good[:12]...), 0, 0, 2, 0), good[16:]...),
		"wrong shape": append(append(append([]byte{}, good[:16+len(net.Params()[0].Name)]...), 1, 0, 0, 0, 3, 0, 0, 0), good[16+len(net.Params()[0].Name)+12:]...),
	}
	for n := 0; n < len(good); n++ {
		bad[fmt.Sprintf("cut at %d", n)] = good[:n]
	}
	for name, b := range bad {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := LoadWeights(path, MLP(rng.New(6), 4, nil, 2)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	if err := LoadWeights(filepath.Join(t.TempDir(), "missing.bin"), net); err == nil {
		t.Error("missing file loaded without error")
	}
	if err := SaveWeights(filepath.Join(path, "w.bin"), net); err == nil {
		t.Error("weights saved under a regular file")
	}
}

func TestTrainFitsSmallDataset(t *testing.T) {
	train := dataset.SynthDigits(50, dataset.DefaultDigitsConfig(400))
	net := MLP(rng.New(7), train.SampleDim(), []int{32}, 10)
	cfg := TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.03, Momentum: 0.9, Seed: 1}
	mustTrain(t, net, train, cfg)
	if acc := accuracy(net, train); acc < 0.85 {
		t.Fatalf("training reached only %.1f%% on its own training set", 100*acc)
	}
}

func TestTrainWithLabelSmoothing(t *testing.T) {
	train := dataset.SynthDigits(51, dataset.DefaultDigitsConfig(300))
	net := MLP(rng.New(8), train.SampleDim(), []int{24}, 10)
	cfg := TrainConfig{Epochs: 4, BatchSize: 32, LR: 0.03, Momentum: 0.9, LabelSmooth: 0.1, Seed: 2}
	mustTrain(t, net, train, cfg)
	if acc := accuracy(net, train); acc < 0.8 {
		t.Fatalf("smoothed training reached only %.1f%%", 100*acc)
	}
	// smoothing caps confidence: max softmax output should stay below ~0.95
	probs := engine.MustCompile(net, engine.Options{}).Probs(train.Input(0))
	if probs.Max() > 0.995 {
		t.Errorf("label smoothing left confidence at %v", probs.Max())
	}
}

func TestTrainOrLoadCaches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache", "model.bin")
	train := dataset.SynthDigits(52, dataset.DefaultDigitsConfig(100))
	builds, trains := 0, 0
	build := func() *nn.Network {
		builds++
		return MLP(rng.New(9), train.SampleDim(), nil, 10)
	}
	trainFn := func(net *nn.Network) error {
		trains++
		return Train(context.Background(), net, train, TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.01, Seed: 3})
	}
	first, err := TrainOrLoad(path, build, trainFn)
	if err != nil {
		t.Fatal(err)
	}
	if trains != 1 {
		t.Fatalf("first call trained %d times", trains)
	}
	second, err := TrainOrLoad(path, build, trainFn)
	if err != nil {
		t.Fatal(err)
	}
	if trains != 1 {
		t.Fatalf("second call retrained (total %d)", trains)
	}
	for i := range first.Params() {
		if !first.Params()[i].Value.Equal(second.Params()[i].Value) {
			t.Fatal("cached weights differ from trained weights")
		}
	}
}

func TestTrainOrLoadCorruptCacheErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := TrainOrLoad(path,
		func() *nn.Network { return MLP(rng.New(10), 4, nil, 2) },
		func(*nn.Network) error { return nil })
	if err == nil {
		t.Fatal("corrupt cache silently accepted")
	}
	// a failed training, an unwritable cache directory and a failed write
	// each surface
	build := func() *nn.Network { return MLP(rng.New(10), 4, nil, 2) }
	if _, err := TrainOrLoad(filepath.Join(dir, "a.bin"), build, func(*nn.Network) error { return os.ErrInvalid }); err == nil {
		t.Error("failed training accepted")
	}
	ok := func(*nn.Network) error { return nil }
	if _, err := TrainOrLoad(filepath.Join(path, "sub", "b.bin"), build, ok); err == nil {
		t.Error("cache under a regular file accepted")
	}
	if err := os.Mkdir(filepath.Join(dir, "c.bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainOrLoad(filepath.Join(dir, "c.bin"), build, ok); err == nil {
		t.Error("cache path naming a directory accepted")
	}
	if err := Train(context.Background(), build(), dataset.SynthDigits(1, dataset.DefaultDigitsConfig(4)), TrainConfig{}); err == nil {
		t.Error("a zero BatchSize trained")
	}
}

func TestTrainRejectsDropConnectWithLabelSmoothing(t *testing.T) {
	train := dataset.SynthDigits(53, dataset.DefaultDigitsConfig(40))
	net := MLP(rng.New(11), train.SampleDim(), nil, 10)
	before := net.Clone()
	cfg := TrainConfig{Epochs: 1, LR: 0.01, DropP: 0.1, LabelSmooth: 0.1}
	if err := Train(context.Background(), net, train, cfg); err == nil {
		t.Fatal("DropP with LabelSmooth trained instead of being rejected")
	}
	for i, p := range net.Params() {
		if !p.Value.Equal(before.Params()[i].Value) {
			t.Fatal("rejected config moved the weights")
		}
	}
}

func TestSnapshotStuckRestores(t *testing.T) {
	net := MLP(rng.New(6), 4, nil, 2)
	p := net.Params()[0]
	mask := make([]bool, p.Value.Len())
	mask[0], mask[3] = true, true
	stuck := map[string][]bool{p.Name: mask}
	v0, v3 := p.Value.Data()[0], p.Value.Data()[3]
	restore := snapshotStuck(net, stuck)
	p.Value.Apply(func(float64) float64 { return 99 })
	restore()
	d := p.Value.Data()
	if d[0] != v0 || d[3] != v3 {
		t.Fatal("restore did not put frozen values back")
	}
	if d[1] != 99 {
		t.Fatal("restore touched non-frozen positions")
	}
}
