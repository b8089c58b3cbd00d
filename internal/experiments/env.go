// Package experiments reproduces every table and figure of the paper's
// evaluation section. Each experiment is a pure function of a shared Env
// (trained models, datasets, pattern sets — all cached on disk under
// testdata/) and a Scale (how many fault models, evaluation images and
// patterns to use; the full paper scale is restored with REPRO_FULL=1 or
// FullScale()).
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"reramtest/internal/dataset"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/testgen"
)

// Deterministic seeds for every stochastic stage. Fixed so all runs — and
// the cached artifacts — agree bit-for-bit.
const (
	seedDigitsTrain  = 1001
	seedDigitsTest   = 1002
	seedDigitsPool   = 1003
	seedObjectsPool  = 2003
	seedObjectsTrain = 2001
	seedObjectsTest  = 2002
	seedLeNetInit    = 3001
	seedConvNetInit  = 3002
	seedOTPRef       = 4001 // reference fault model for O-TP generation
	seedOTPNoise     = 4002
	seedAET          = 4003
	seedFaultBase    = 5000 // per-sigma fault-model sets derive from this
)

// LeNetSigmas is the paper's programming-error sweep for LeNet-5 (Table I).
var LeNetSigmas = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}

// ConvNetSigmas is the paper's sweep for ConvNet-7 (Table II).
var ConvNetSigmas = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30}

// LeNetSoftPs and ConvNetSoftPs are the paper's random-soft-error
// probabilities (Fig. 6).
var (
	LeNetSoftPs   = []float64{0.005, 0.01}
	ConvNetSoftPs = []float64{0.001, 0.003}
)

// Methods lists the evaluated pattern-generation methods in the paper's
// reporting order.
var Methods = []string{"aet", "ctp", "otp"}

// Scale holds the experiment size knobs.
type Scale struct {
	// TrainN/TestN size the synthetic datasets.
	TrainN, TestN int
	// PoolN sizes the inference pool that C-TP corner data and AET source
	// images are drawn from (the paper uses the full 10K test split).
	PoolN int
	// Patterns is the concurrent-test set size per method (paper: 50).
	Patterns int
	// FaultModels is the number of independent fault models per error
	// setting (paper: 100).
	FaultModels int
	// AccModels is the number of fault models averaged for the accuracy
	// tables (Tables I/II).
	AccModels int
	// AccImages is the number of test images used per accuracy measurement.
	AccImages int
	// MaxPatterns bounds the Fig. 7 pattern-count sweep.
	MaxPatterns int
}

// DefaultScale returns a laptop-scale configuration (minutes, not hours, on
// one core); FullScale reproduces the paper's counts. REPRO_FULL=1 in the
// environment selects FullScale automatically.
func DefaultScale() Scale {
	if os.Getenv("REPRO_FULL") == "1" {
		return FullScale()
	}
	return Scale{
		TrainN: 4000, TestN: 1000, PoolN: 6000,
		Patterns: 50, FaultModels: 20, AccModels: 5, AccImages: 400,
		MaxPatterns: 200,
	}
}

// FullScale mirrors the paper: 100 fault models per setting and the full
// test split for accuracy.
func FullScale() Scale {
	return Scale{
		TrainN: 4000, TestN: 1000, PoolN: 10000,
		Patterns: 50, FaultModels: 100, AccModels: 20, AccImages: 1000,
		MaxPatterns: 200,
	}
}

// RepoRoot locates the repository root from this source file's position, so
// cached artifacts resolve identically under `go test`, benches and the
// cmd/ binaries.
func RepoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		panic("experiments: cannot locate source file for repo root")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// Env carries the trained models, datasets and cached pattern sets shared by
// all experiments.
type Env struct {
	Scale Scale
	Log   io.Writer

	DigitsTrain, DigitsTest   *dataset.Dataset
	ObjectsTrain, ObjectsTest *dataset.Dataset
	DigitsPool, ObjectsPool   *dataset.Dataset
	LeNet, ConvNet            *nn.Network

	patternCache map[string]*testgen.PatternSet
	sweepCache   map[string]*SweepResult
	accCache     map[string]*AccuracyTable
}

// NewEnv builds (or loads from testdata/) everything the experiments need.
// Training happens only on the first ever run; weights are cached under
// testdata/weights/.
func NewEnv(scale Scale, logw io.Writer) (*Env, error) {
	if logw == nil {
		logw = io.Discard
	}
	e := &Env{Scale: scale, Log: logw,
		patternCache: make(map[string]*testgen.PatternSet),
		sweepCache:   make(map[string]*SweepResult),
		accCache:     make(map[string]*AccuracyTable),
	}
	fmt.Fprintf(logw, "generating datasets (train=%d test=%d)...\n", scale.TrainN, scale.TestN)
	e.DigitsTrain = dataset.SynthDigits(seedDigitsTrain, dataset.DefaultDigitsConfig(scale.TrainN))
	e.DigitsTest = dataset.SynthDigits(seedDigitsTest, dataset.DefaultDigitsConfig(scale.TestN))
	e.ObjectsTrain = dataset.SynthObjects(seedObjectsTrain, dataset.DefaultObjectsConfig(scale.TrainN))
	e.ObjectsTest = dataset.SynthObjects(seedObjectsTest, dataset.DefaultObjectsConfig(scale.TestN))
	poolN := scale.PoolN
	if poolN < scale.TestN {
		poolN = scale.TestN
	}
	e.DigitsPool = dataset.SynthDigits(seedDigitsPool, dataset.DefaultDigitsConfig(poolN))
	e.ObjectsPool = dataset.SynthObjects(seedObjectsPool, dataset.DefaultObjectsConfig(poolN))

	weightsDir := filepath.Join(RepoRoot(), "testdata", "weights")
	var err error
	// train is the first-run trainer of one evaluation model
	train := func(name string, data *dataset.Dataset) func(*nn.Network) error {
		return func(net *nn.Network) error {
			fmt.Fprintf(logw, "training %s (first run only)...\n", name)
			cfg := models.DefaultTrainConfig()
			cfg.LR = 0.01
			cfg.Log = logw
			return models.Train(context.Background(), net, data, cfg)
		}
	}
	e.LeNet, err = models.TrainOrLoad(filepath.Join(weightsDir, "lenet5.bin"),
		func() *nn.Network { return models.LeNet5(rng.New(seedLeNetInit)) }, train("LeNet-5", e.DigitsTrain))
	if err != nil {
		return nil, fmt.Errorf("experiments: LeNet-5: %w", err)
	}
	e.ConvNet, err = models.TrainOrLoad(filepath.Join(weightsDir, "convnet7.bin"),
		func() *nn.Network { return models.ConvNet7(rng.New(seedConvNetInit)) }, train("ConvNet-7", e.ObjectsTrain))
	if err != nil {
		return nil, fmt.Errorf("experiments: ConvNet-7: %w", err)
	}
	return e, nil
}

// ModelFor returns the trained network and its test set by model key
// ("lenet5" or "convnet7").
func (e *Env) ModelFor(model string) (*nn.Network, *dataset.Dataset) {
	switch model {
	case "lenet5":
		return e.LeNet, e.DigitsTest
	case "convnet7":
		return e.ConvNet, e.ObjectsTest
	default:
		panic(fmt.Sprintf("experiments: unknown model %q", model))
	}
}

// PoolFor returns the large inference pool that pattern selection draws
// from.
func (e *Env) PoolFor(model string) *dataset.Dataset {
	if model == "lenet5" {
		return e.DigitsPool
	}
	return e.ObjectsPool
}

// SigmasFor returns the paper's programming-error sweep for the model.
func SigmasFor(model string) []float64 {
	if model == "lenet5" {
		return LeNetSigmas
	}
	return ConvNetSigmas
}

// otpRefSigma is the programming-error level of the reference fault model
// used during O-TP generation (a mid-sweep value for each model).
func otpRefSigma(model string) float64 {
	if model == "lenet5" {
		return 0.3
	}
	return 0.2
}

// Patterns returns the pattern set for (model, method) with m patterns,
// generating and caching (memory + testdata/patterns/) on first use.
// Methods: "aet", "ctp", "otp", "plain".
func (e *Env) Patterns(model, method string, m int) *testgen.PatternSet {
	key := fmt.Sprintf("%s-%s-%d", model, method, m)
	if p, ok := e.patternCache[key]; ok {
		return p
	}
	dir := filepath.Join(RepoRoot(), "testdata", "patterns")
	path := filepath.Join(dir, key+".bin")
	if p, err := testgen.LoadPatternSet(path); err == nil && p.M() == m {
		e.patternCache[key] = p
		return p
	}
	net, _ := e.ModelFor(model)
	pool := e.PoolFor(model)
	fmt.Fprintf(e.Log, "generating pattern set %s...\n", key)
	var p *testgen.PatternSet
	switch method {
	case "ctp":
		p = testgen.SelectCTP(net, pool, m)
	case "aet":
		p = testgen.GenerateAET(net, pool, m, testgen.DefaultAETConfig(), rng.New(seedAET))
	case "plain":
		p = testgen.SelectPlain(pool, m)
	case "otp":
		ref := faults.MakeFaulty(net, faults.LogNormal{Sigma: otpRefSigma(model)}, seedOTPRef)
		cfg := testgen.DefaultOTPConfig()
		cfg.PerClass = (m + pool.Classes - 1) / pool.Classes
		p, _ = testgen.GenerateOTP(net, ref, pool.Classes, cfg, rng.New(seedOTPNoise))
		if p.M() > m {
			p = p.Head(m)
		}
	default:
		panic(fmt.Sprintf("experiments: unknown method %q", method))
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		if err := p.Save(path); err != nil {
			fmt.Fprintf(e.Log, "warning: caching %s failed: %v\n", path, err)
		}
	}
	e.patternCache[key] = p
	return p
}

// OTPPatternCount is the paper's O-TP size: one pattern per class.
func (e *Env) OTPPatternCount(model string) int {
	_, pool := e.ModelFor(model)
	return pool.Classes
}

// PatternsDefault returns the evaluation-sized pattern set: Scale.Patterns
// for AET/C-TP (the paper's 50), and n (= classes) for O-TP, which the paper
// shows needs no more.
func (e *Env) PatternsDefault(model, method string) *testgen.PatternSet {
	m := e.Scale.Patterns
	if method == "otp" {
		m = e.OTPPatternCount(model)
	}
	return e.Patterns(model, method, m)
}
