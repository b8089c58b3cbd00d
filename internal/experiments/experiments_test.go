package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reramtest/internal/engine"
	"reramtest/internal/monitor"
)

// tinyScale keeps the experiment tests to seconds: the heavy lifting (model
// training) is amortised through the testdata/weights cache, which exists in
// the repository; only tiny sweeps run live.
func tinyScale() Scale {
	return Scale{
		TrainN: 4000, TestN: 300, PoolN: 1500,
		Patterns: 10, FaultModels: 3, AccModels: 2, AccImages: 100,
		MaxPatterns: 25,
	}
}

// testEnv builds the shared environment once per test binary.
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if _, err := os.Stat(filepath.Join(RepoRoot(), "testdata", "weights", "lenet5.bin")); err != nil {
		t.Skip("trained weight cache missing; run `go run ./cmd/train` first")
	}
	if sharedEnv == nil {
		e, err := NewEnv(tinyScale(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

func TestEnvLoadsModels(t *testing.T) {
	e := env(t)
	lenet := engine.MustCompile(e.LeNet, engine.Options{})
	if acc := lenet.Accuracy(e.DigitsTest.X, e.DigitsTest.Y, 64); acc < 0.9 {
		t.Fatalf("cached LeNet-5 accuracy %.2f, want >0.9", acc)
	}
	convnet := engine.MustCompile(e.ConvNet, engine.Options{})
	if acc := convnet.Accuracy(e.ObjectsTest.X, e.ObjectsTest.Y, 64); acc < 0.6 {
		t.Fatalf("cached ConvNet-7 accuracy %.2f, want >0.6", acc)
	}
}

// TestPatternKeysNameThePool: the tiny, default and full scales draw AET,
// C-TP and plain sets from pools of 1 500, 6 000 and 10 000 images, so no two
// of them may share a cache file; O-TP reads no pool and keeps one key.
func TestPatternKeysNameThePool(t *testing.T) {
	scales := []Scale{tinyScale(), DefaultScale(), FullScale()}
	for _, method := range []string{"aet", "ctp", "plain", "otp"} {
		seen := map[string]int{}
		for i, s := range scales {
			seen[patternKey("lenet5", method, 10, s.poolN())] = i
		}
		want := len(scales)
		if method == "otp" {
			want = 1
		}
		if len(seen) != want {
			t.Errorf("%s: the three scales use %d cache keys %v, want %d", method, len(seen), seen, want)
		}
	}
	if got := patternKey("lenet5", "ctp", 10, tinyScale().poolN()); got != "lenet5-ctp-10-pool1500" {
		t.Errorf("tiny-scale C-TP key %q", got)
	}
}

func TestPatternsCachedAndSized(t *testing.T) {
	e := env(t)
	p1 := e.Patterns("lenet5", "ctp", 10)
	if p1.M() != 10 {
		t.Fatalf("ctp set has %d patterns", p1.M())
	}
	p2 := e.Patterns("lenet5", "ctp", 10)
	if p1 != p2 {
		t.Fatal("pattern cache miss on identical request")
	}
	if otp := e.PatternsDefault("lenet5", "otp"); otp.M() != 10 {
		t.Fatalf("default O-TP set has %d patterns, want classes=10", otp.M())
	}
}

func TestAccuracySweepShape(t *testing.T) {
	e := env(t)
	tab := e.Table1()
	if len(tab.Sigmas) != len(LeNetSigmas) || len(tab.MeanAcc) != len(LeNetSigmas) {
		t.Fatalf("Table1 has %d sigma rows", len(tab.MeanAcc))
	}
	if tab.CleanAcc < 0.9 {
		t.Fatalf("clean accuracy %.2f", tab.CleanAcc)
	}
	// paper Table I shape: degradation grows with σ
	if tab.MeanAcc[len(tab.MeanAcc)-1] >= tab.CleanAcc {
		t.Fatal("σ=0.5 accuracy did not drop below clean accuracy")
	}
	if !strings.Contains(tab.Render(), "accuracy") {
		t.Fatal("Render missing accuracy row")
	}
	// cached second call
	if e.Table1() != tab {
		t.Fatal("accuracy sweep not cached")
	}
}

func TestProgrammingErrorSweepShape(t *testing.T) {
	e := env(t)
	sw := e.ProgrammingErrorSweep("lenet5")
	if len(sw.Levels) != len(LeNetSigmas) {
		t.Fatalf("sweep has %d levels", len(sw.Levels))
	}
	for _, m := range Methods {
		if len(sw.Obs[m]) != len(sw.Levels) {
			t.Fatalf("method %s has %d level entries", m, len(sw.Obs[m]))
		}
		for li := range sw.Levels {
			if len(sw.Obs[m][li]) != e.Scale.FaultModels {
				t.Fatalf("method %s level %d has %d observations", m, li, len(sw.Obs[m][li]))
			}
		}
		dist := sw.MeanAllDist(m)
		if dist[0] >= dist[len(dist)-1] {
			t.Errorf("method %s all-dist not increasing: %v", m, dist)
		}
	}
	// cache works
	if e.ProgrammingErrorSweep("lenet5") != sw {
		t.Fatal("sweep not cached")
	}
}

func TestTable3ReportsAllCells(t *testing.T) {
	e := env(t)
	tab := e.Table3()
	for _, model := range tab.Models {
		for _, m := range Methods {
			for _, c := range monitor.AllCriteria {
				r := tab.Rates[model][m][c]
				if r < 0 || r > 1 {
					t.Fatalf("rate %v out of range for %s/%s/%s", r, model, m, c)
				}
			}
		}
	}
	out := tab.Render()
	for _, want := range []string{"AET", "C-TP", "O-TP", "SDC-1", "SDC-A5%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table3 render missing %q", want)
		}
	}
}

func TestTable4CVRange(t *testing.T) {
	e := env(t)
	tab := e.Table4()
	for _, m := range Methods {
		if len(tab.CV[m]) != len(LeNetSigmas) {
			t.Fatalf("CV row for %s has %d entries", m, len(tab.CV[m]))
		}
		for _, cv := range tab.CV[m] {
			if cv < 0 {
				t.Fatalf("negative CV for %s: %v", m, cv)
			}
		}
	}
	if !strings.Contains(tab.Render(), "CV of confidence distance") {
		t.Fatal("Table4 render missing title")
	}
}

func TestFig3Shapes(t *testing.T) {
	e := env(t)
	f := e.Fig3()
	for _, model := range f.Models {
		for _, m := range Methods {
			if len(f.Top[model][m]) != len(f.Sigmas[model]) {
				t.Fatalf("fig3 %s/%s top series wrong length", model, m)
			}
		}
	}
	if !strings.Contains(f.Render(), "confidence distance") {
		t.Fatal("Fig3 render missing panel titles")
	}
}

func TestFig4And5And6Rates(t *testing.T) {
	e := env(t)
	for _, f := range []*RateFigResult{e.Fig4(), e.Fig5(), e.Fig6()} {
		for _, model := range f.Models {
			for _, m := range Methods {
				for _, c := range f.Criteria {
					series, ok := f.Rates[model][m][c]
					if !ok {
						t.Fatalf("%s missing series %s/%s/%s", f.Name, model, m, c)
					}
					for _, r := range series {
						if r < 0 || r > 1 {
							t.Fatalf("%s rate %v out of range", f.Name, r)
						}
					}
				}
			}
		}
		if f.Render() == "" {
			t.Fatalf("%s render empty", f.Name)
		}
	}
}

func TestFig7PatternSweep(t *testing.T) {
	e := env(t)
	f := e.Fig7()
	for _, model := range f.Models {
		for _, m := range Methods {
			counts := f.Counts[model][m]
			stds := f.Std[model][m]
			if len(counts) == 0 || len(counts) != len(stds) {
				t.Fatalf("fig7 %s/%s series lengths %d/%d", model, m, len(counts), len(stds))
			}
			for _, s := range stds {
				if s < 0 {
					t.Fatalf("negative std in fig7 %s/%s", model, m)
				}
			}
		}
	}
}

func TestFig8CalibrationExport(t *testing.T) {
	e := env(t)
	f := e.Fig8()
	if len(f.Accuracy) != len(f.Sigmas) {
		t.Fatalf("fig8 accuracy series length %d", len(f.Accuracy))
	}
	for _, m := range []string{"plain", "aet", "ctp", "otp"} {
		if len(f.Dist[m]) != len(f.Sigmas) {
			t.Fatalf("fig8 missing distance series for %s", m)
		}
	}
	dist, acc := f.CalibrationCurve("otp")
	if len(dist) != len(acc) || len(dist) == 0 {
		t.Fatal("calibration curve empty")
	}
	// O-TP distance must grow while accuracy falls (negative correlation) —
	// the property the accuracy estimator depends on
	if f.Slope["otp"] <= 0 {
		t.Fatalf("O-TP distance-vs-loss slope %v, want positive", f.Slope["otp"])
	}
	if !strings.Contains(f.Render(), "linearity") {
		t.Fatal("Fig8 render missing fit table")
	}
}

func TestSigmasFor(t *testing.T) {
	if len(SigmasFor("lenet5")) != 10 || len(SigmasFor("convnet7")) != 6 {
		t.Fatal("sigma grids wrong")
	}
}

func TestRepoRootFindsGoMod(t *testing.T) {
	if _, err := os.Stat(filepath.Join(RepoRoot(), "go.mod")); err != nil {
		t.Fatalf("RepoRoot()=%s has no go.mod", RepoRoot())
	}
}
