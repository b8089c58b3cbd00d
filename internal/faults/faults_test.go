package faults

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"reramtest/internal/engine"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

func testNet() *nn.Network {
	return models.MLP(rng.New(1), 8, []int{16}, 4)
}

func weightSnapshot(net *nn.Network) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range net.Params() {
		out = append(out, p.Value.Clone())
	}
	return out
}

func TestMakeFaultyLeavesCleanUntouched(t *testing.T) {
	clean := testNet()
	before := weightSnapshot(clean)
	_ = MakeFaulty(clean, LogNormal{Sigma: 0.5}, 42)
	for i, p := range clean.Params() {
		if !p.Value.Equal(before[i]) {
			t.Fatalf("MakeFaulty mutated clean param %s", p.Name)
		}
	}
}

func TestMakeFaultyDeterministic(t *testing.T) {
	clean := testNet()
	a := MakeFaulty(clean, LogNormal{Sigma: 0.3}, 7)
	b := MakeFaulty(clean, LogNormal{Sigma: 0.3}, 7)
	for i := range a.Params() {
		if !a.Params()[i].Value.Equal(b.Params()[i].Value) {
			t.Fatal("same seed produced different fault models")
		}
	}
	c := MakeFaulty(clean, LogNormal{Sigma: 0.3}, 8)
	if a.Params()[0].Value.Equal(c.Params()[0].Value) {
		t.Fatal("different seeds produced identical fault models")
	}
}

func TestLogNormalPreservesSignAndZero(t *testing.T) {
	clean := testNet()
	// plant exact zeros and fixed signs
	w := clean.Params()[0].Value
	w.Data()[0] = 0
	w.Data()[1] = 2
	w.Data()[2] = -3
	faulty := MakeFaulty(clean, LogNormal{Sigma: 0.5}, 3)
	fw := faulty.Params()[0].Value.Data()
	if fw[0] != 0 {
		t.Fatalf("lognormal changed zero weight to %v", fw[0])
	}
	if fw[1] <= 0 || fw[2] >= 0 {
		t.Fatalf("lognormal flipped signs: %v %v", fw[1], fw[2])
	}
}

func TestLogNormalMagnitude(t *testing.T) {
	// E[ln(w'/w)] = 0, std ≈ σ over many weights
	clean := models.MLP(rng.New(2), 64, []int{128}, 10)
	const sigma = 0.3
	faulty := MakeFaulty(clean, LogNormal{Sigma: sigma}, 5)
	var logs []float64
	for i, p := range clean.Params() {
		if !strings.HasSuffix(p.Name, ".weight") {
			continue
		}
		fd := faulty.Params()[i].Value.Data()
		for j, w := range p.Value.Data() {
			if w != 0 {
				logs = append(logs, math.Log(fd[j]/w))
			}
		}
	}
	mean, sq := 0.0, 0.0
	for _, v := range logs {
		mean += v
	}
	mean /= float64(len(logs))
	for _, v := range logs {
		sq += (v - mean) * (v - mean)
	}
	std := math.Sqrt(sq / float64(len(logs)))
	if math.Abs(mean) > 0.01 {
		t.Errorf("lognormal θ mean %v, want ≈0", mean)
	}
	if math.Abs(std-sigma) > 0.01 {
		t.Errorf("lognormal θ std %v, want ≈%v", std, sigma)
	}
}

func TestBiasesUntouched(t *testing.T) {
	clean := testNet()
	// make biases non-zero so corruption would be visible
	for _, p := range clean.Params() {
		if strings.HasSuffix(p.Name, ".bias") {
			p.Value.CopyFrom(tensor.Full(0.5, p.Value.Shape()...))
		}
	}
	for _, inj := range []Injector{
		LogNormal{Sigma: 1},
		RandomSoft{P: 1},
		StuckAt{P0: 0.5, P1: 0.5},
		Drift{Rate: 1, Jitter: 1, T: 10},
	} {
		faulty := MakeFaulty(clean, inj, 11)
		for i, p := range clean.Params() {
			if strings.HasSuffix(p.Name, ".bias") {
				if !faulty.Params()[i].Value.Equal(p.Value) {
					t.Errorf("%s corrupted bias %s", inj.Name(), p.Name)
				}
			}
		}
	}
}

func TestRandomSoftRate(t *testing.T) {
	clean := models.MLP(rng.New(3), 64, []int{128}, 10)
	const p = 0.05
	faulty := MakeFaulty(clean, RandomSoft{P: p}, 13)
	changed, total := 0, 0
	for i, pr := range clean.Params() {
		if !strings.HasSuffix(pr.Name, ".weight") {
			continue
		}
		fd := faulty.Params()[i].Value.Data()
		for j, w := range pr.Value.Data() {
			total++
			if fd[j] != w {
				changed++
			}
		}
	}
	rate := float64(changed) / float64(total)
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("RandomSoft changed %.3f of weights, want ≈%v", rate, p)
	}
}

func TestRandomSoftStaysInRange(t *testing.T) {
	clean := testNet()
	w := clean.Params()[0].Value
	lo, hi := w.Min(), w.Max()
	faulty := MakeFaulty(clean, RandomSoft{P: 1}, 17)
	fw := faulty.Params()[0].Value
	if fw.Min() < lo-1e-12 || fw.Max() > hi+1e-12 {
		t.Fatalf("RandomSoft out of range [%v,%v]: [%v,%v]", lo, hi, fw.Min(), fw.Max())
	}
}

func TestStuckAtRates(t *testing.T) {
	clean := models.MLP(rng.New(4), 64, []int{128}, 10)
	faulty := MakeFaulty(clean, StuckAt{P0: 0.1, P1: 0.05}, 19)
	zeros, total := 0, 0
	for i, pr := range clean.Params() {
		if !strings.HasSuffix(pr.Name, ".weight") {
			continue
		}
		fd := faulty.Params()[i].Value.Data()
		cd := pr.Value.Data()
		for j := range fd {
			total++
			if fd[j] == 0 && cd[j] != 0 {
				zeros++
			}
		}
	}
	rate := float64(zeros) / float64(total)
	if math.Abs(rate-0.1) > 0.02 {
		t.Fatalf("SA0 rate %.3f, want ≈0.1", rate)
	}
}

func TestStuckAtSA1PreservesSign(t *testing.T) {
	clean := testNet()
	faulty := MakeFaulty(clean, StuckAt{P0: 0, P1: 1}, 23)
	for i, pr := range clean.Params() {
		if !strings.HasSuffix(pr.Name, ".weight") {
			continue
		}
		fd := faulty.Params()[i].Value.Data()
		for j, w := range pr.Value.Data() {
			if w > 0 && fd[j] < 0 || w < 0 && fd[j] > 0 {
				t.Fatal("SA1 flipped a weight sign")
			}
		}
	}
}

func TestDriftDecaysMagnitude(t *testing.T) {
	clean := testNet()
	faulty := MakeFaulty(clean, Drift{Rate: 0.1, Jitter: 0, T: 5}, 29)
	want := math.Exp(-0.5)
	for i, pr := range clean.Params() {
		if !strings.HasSuffix(pr.Name, ".weight") {
			continue
		}
		fd := faulty.Params()[i].Value.Data()
		for j, w := range pr.Value.Data() {
			if w == 0 {
				continue
			}
			if math.Abs(fd[j]/w-want) > 1e-12 {
				t.Fatalf("drift factor %v, want %v", fd[j]/w, want)
			}
		}
	}
}

func TestComposeAppliesAll(t *testing.T) {
	clean := testNet()
	inj := Compose{Drift{Rate: 0.1, Jitter: 0, T: 1}, StuckAt{P0: 1, P1: 0}}
	faulty := MakeFaulty(clean, inj, 31)
	// SA0 with P0=1 zeroes everything regardless of drift
	for i, pr := range clean.Params() {
		if strings.HasSuffix(pr.Name, ".weight") {
			if w := faulty.Params()[i].Value; w.Min() != 0 || w.Max() != 0 {
				t.Fatal("compose did not apply final stuck-at")
			}
		}
	}
	if !strings.Contains(inj.Name(), "drift") || !strings.Contains(inj.Name(), "stuckat") {
		t.Fatalf("compose name %q missing parts", inj.Name())
	}
}

func TestMakeFaultySetIndependence(t *testing.T) {
	clean := testNet()
	set := MakeFaultySet(clean, LogNormal{Sigma: 0.3}, 5, 99)
	if len(set) != 5 {
		t.Fatalf("set size %d", len(set))
	}
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if set[i].Params()[0].Value.Equal(set[j].Params()[0].Value) {
				t.Fatalf("fault models %d and %d identical", i, j)
			}
		}
	}
	// deterministic regeneration
	set2 := MakeFaultySet(clean, LogNormal{Sigma: 0.3}, 5, 99)
	for i := range set {
		if !set[i].Params()[0].Value.Equal(set2[i].Params()[0].Value) {
			t.Fatal("MakeFaultySet not deterministic")
		}
	}
}

func TestAccuracyDegradesMonotonically(t *testing.T) {
	// sanity link to the paper's Table I: larger σ must not (on average)
	// *improve* accuracy. Use a tiny trained model and coarse σ levels.
	r := rng.New(6)
	train := 200
	dim := 16
	x := tensor.RandUniform(r, 0, 1, train, dim)
	y := make([]int, train)
	for i := 0; i < train; i++ {
		if x.Data()[i*dim] > 0.5 {
			y[i] = 1
		}
	}
	net := models.MLP(rng.New(7), dim, []int{16}, 2)
	// quick fit
	trainNet(net, x, y, 200)
	eng := engine.MustCompile(net, engine.Options{})
	clean := eng.Accuracy(x, y, 32)
	if clean < 0.9 {
		t.Fatalf("tiny model failed to fit: %v", clean)
	}
	accAt := func(sigma float64) float64 {
		sum := 0.0
		for _, fm := range MakeFaultySet(net, LogNormal{Sigma: sigma}, 10, 37) {
			if err := eng.Rebind(fm); err != nil {
				t.Fatal(err)
			}
			sum += eng.Accuracy(x, y, 32)
		}
		return sum / 10
	}
	small, large := accAt(0.1), accAt(1.5)
	if large > small+0.02 {
		t.Fatalf("accuracy increased with error: σ=0.1→%.3f σ=1.5→%.3f", small, large)
	}
}

func trainNet(net *nn.Network, x *tensor.Tensor, y []int, iters int) {
	eng := tengine.MustCompile(net, tengine.Options{})
	for i := 0; i < iters; i++ {
		eng.ForwardBackward(x, y) // x has rows: never empty
		for _, p := range net.Params() {
			v := p.Value.Data()
			for i, g := range p.Grad.Data() {
				v[i] += -0.5 * g
			}
		}
	}
}

// Property: fault injection is a pure function of (clean weights, seed).
func TestInjectionPureFunctionProperty(t *testing.T) {
	clean := testNet()
	err := quick.Check(func(seed int64, sigmaRaw uint8) bool {
		sigma := 0.05 + float64(sigmaRaw%50)/100
		a := MakeFaulty(clean, LogNormal{Sigma: sigma}, seed)
		b := MakeFaulty(clean, LogNormal{Sigma: sigma}, seed)
		for i := range a.Params() {
			if !a.Params()[i].Value.Equal(b.Params()[i].Value) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10})
	if err != nil {
		t.Error(err)
	}
}

// Property: RandomSoft with p=0 is the identity.
func TestRandomSoftZeroProbabilityIdentity(t *testing.T) {
	clean := testNet()
	faulty := MakeFaulty(clean, RandomSoft{P: 0}, 5)
	for i, p := range clean.Params() {
		if !faulty.Params()[i].Value.Equal(p.Value) {
			t.Fatalf("p=0 injection changed %s", p.Name)
		}
	}
}
