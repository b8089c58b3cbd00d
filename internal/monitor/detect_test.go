package monitor

import (
	"math"
	"testing"

	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

func testPatterns(m, dim int) *testgen.PatternSet {
	return &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(5), 0, 1, m, dim),
		Labels: make([]int, m),
	}
}

func TestTopK(t *testing.T) {
	row := []float64{0.1, 0.5, 0.2, 0.05, 0.15}
	got := topK(row, 3)
	want := []int{1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topK=%v, want %v", got, want)
		}
	}
	// ties break by class index
	tied := topK([]float64{0.3, 0.3, 0.4}, 3)
	if tied[0] != 2 || tied[1] != 0 || tied[2] != 1 {
		t.Fatalf("tie-breaking wrong: %v", tied)
	}
	// k larger than row
	if len(topK([]float64{1, 2}, 5)) != 2 {
		t.Fatal("topK over-long k not clamped")
	}
}

func TestObserveIdenticalModelIsZero(t *testing.T) {
	net := models.MLP(rng.New(1), 12, []int{8}, 6)
	g := Capture(net, testPatterns(5, 12))
	o := g.Observe(net)
	if o.TopDist != 0 || o.AllDist != 0 || o.Top1Changes != 0 || o.Top5Changes != 0 {
		t.Fatalf("self-observation non-zero: %+v", o)
	}
	for _, c := range AllCriteria {
		if o.Detect(c) {
			t.Fatalf("criterion %s fired on the ideal model", c)
		}
	}
}

func TestObserveDetectsCorruptedModel(t *testing.T) {
	net := models.MLP(rng.New(2), 12, []int{8}, 6)
	g := Capture(net, testPatterns(10, 12))
	faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: 2}, 3)
	o := g.Observe(faulty)
	if o.AllDist <= 0 || o.TopDist <= 0 {
		t.Fatalf("massive corruption produced zero distance: %+v", o)
	}
}

// TestObserveSeesInPlaceMutation: the cached sweep engine rebinds to the
// same network object across Observes, so a fault injected in place between
// two of them must register, at exactly the distance a fresh Golden scores.
func TestObserveSeesInPlaceMutation(t *testing.T) {
	net := models.MLP(rng.New(1), 12, []int{8}, 6)
	g := Capture(net, testPatterns(5, 12))
	target := net.Clone()
	if clean := g.Observe(target); clean.AllDist != 0 {
		t.Fatalf("clean clone scored distance %g", clean.AllDist)
	}
	faults.LogNormal{Sigma: 0.5}.Apply(target, rng.New(9))
	dirty := g.Observe(target)
	if !(dirty.AllDist > 0.01) {
		t.Fatalf("sweep missed the in-place fault: AllDist %g", dirty.AllDist)
	}
	if fresh := Capture(net, g.Patterns).Observe(target); fresh.AllDist != dirty.AllDist {
		t.Fatalf("cached engine scored %g, a fresh one %g", dirty.AllDist, fresh.AllDist)
	}
}

func TestCriterionThresholds(t *testing.T) {
	cases := []struct {
		o    Observation
		c    Criterion
		want bool
	}{
		{Observation{Top1Changes: 1}, SDC1, true},
		{Observation{Top1Changes: 0}, SDC1, false},
		{Observation{Top5Changes: 1}, SDC5, true},
		{Observation{TopDist: 0.06}, SDCT5, true},
		{Observation{TopDist: 0.04}, SDCT5, false},
		{Observation{TopDist: 0.11}, SDCT10, true},
		{Observation{TopDist: 0.09}, SDCT10, false},
		{Observation{AllDist: 0.031}, SDCA3, true},
		{Observation{AllDist: 0.029}, SDCA3, false},
		{Observation{AllDist: 0.051}, SDCA5, true},
		{Observation{AllDist: 0.049}, SDCA5, false},
	}
	for _, c := range cases {
		if got := c.o.Detect(c.c); got != c.want {
			t.Errorf("%s on %+v = %v, want %v", c.c, c.o, got, c.want)
		}
	}
}

func TestCriterionStrings(t *testing.T) {
	wants := map[Criterion]string{
		SDC1: "SDC-1", SDC5: "SDC-5", SDCT5: "SDC-T5%",
		SDCT10: "SDC-T10%", SDCA3: "SDC-A3%", SDCA5: "SDC-A5%",
	}
	for c, want := range wants {
		if c.String() != want {
			t.Errorf("%d.String()=%q, want %q", int(c), c.String(), want)
		}
	}
}

func TestObserveProbsShapeMismatchPanics(t *testing.T) {
	net := models.MLP(rng.New(3), 6, nil, 3)
	g := Capture(net, testPatterns(2, 6))
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	g.ObserveProbs(tensor.New(3, 3))
}

func TestDetectionRateCounts(t *testing.T) {
	net := models.MLP(rng.New(4), 12, []int{8}, 6)
	g := Capture(net, testPatterns(10, 12))
	// mix of heavily corrupted and identical models
	fms := []*nn.Network{
		faults.MakeFaulty(net, faults.LogNormal{Sigma: 3}, 1),
		net.Clone(),
		faults.MakeFaulty(net, faults.LogNormal{Sigma: 3}, 2),
		net.Clone(),
	}
	rates := g.DetectionRate(fms, []Criterion{SDCA3})
	// corrupted models at σ=3 must be detected; clones must not
	if r := rates[SDCA3]; math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("detection rate %v, want 0.5", r)
	}
}

func TestDistanceStats(t *testing.T) {
	net := models.MLP(rng.New(5), 12, []int{8}, 6)
	g := Capture(net, testPatterns(8, 12))
	fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: 0.5}, 6, 11)
	top, all := g.DistanceStats(fms)
	if top.N != 6 || all.N != 6 {
		t.Fatalf("stats over %d/%d models, want 6", top.N, all.N)
	}
	if top.Mean <= 0 || all.Mean <= 0 {
		t.Fatal("zero mean distance for corrupted models")
	}
	if all.Min > all.Max {
		t.Fatal("summary min > max")
	}
}

func TestGoldenTop5Recorded(t *testing.T) {
	net := models.MLP(rng.New(6), 10, nil, 7)
	g := Capture(net, testPatterns(3, 10))
	for i, t5 := range g.Top5 {
		if len(t5) != 5 {
			t.Fatalf("golden top5[%d] has %d entries", i, len(t5))
		}
		if t5[0] != g.Top1[i] {
			t.Fatalf("top5[0] != top1 for pattern %d", i)
		}
	}
}

func TestPerPatternDistancesMatchAggregates(t *testing.T) {
	net := models.MLP(rng.New(7), 12, []int{8}, 5)
	g := Capture(net, testPatterns(6, 12))
	faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.5}, 13)
	o := g.Observe(faulty)
	sumTop, sumAll := 0.0, 0.0
	for i := range o.PerPatternTop {
		sumTop += o.PerPatternTop[i]
		sumAll += o.PerPatternAll[i]
	}
	if math.Abs(sumTop/6-o.TopDist) > 1e-12 {
		t.Fatal("TopDist is not the mean of per-pattern values")
	}
	if math.Abs(sumAll/6-o.AllDist) > 1e-12 {
		t.Fatal("AllDist is not the mean of per-pattern values")
	}
}

func TestMoreSevereFaultsLargerDistance(t *testing.T) {
	net := models.MLP(rng.New(8), 16, []int{12}, 6)
	g := Capture(net, testPatterns(20, 16))
	mean := func(sigma float64) float64 {
		fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: sigma}, 10, 17)
		s := 0.0
		for _, fm := range fms {
			s += g.Observe(fm).AllDist
		}
		return s / 10
	}
	if small, large := mean(0.05), mean(1.0); large <= small {
		t.Fatalf("distance not increasing with σ: %v vs %v", small, large)
	}
}

func TestObserveDeterministic(t *testing.T) {
	net := models.MLP(rng.New(9), 12, []int{8}, 5)
	g := Capture(net, testPatterns(10, 12))
	faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.4}, 21)
	a := g.Observe(faulty)
	b := g.Observe(faulty)
	if a.TopDist != b.TopDist || a.AllDist != b.AllDist ||
		a.Top1Changes != b.Top1Changes || a.Top5Changes != b.Top5Changes {
		t.Fatal("repeated observation of the same model differs")
	}
}

func TestDistancesBounded(t *testing.T) {
	// confidences live in [0,1], so per-class |Δ| ≤ 1 and both the mean
	// all-class distance and the top-ranked distance are bounded by 1
	net := models.MLP(rng.New(10), 12, []int{8}, 5)
	g := Capture(net, testPatterns(10, 12))
	faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: 5}, 23)
	o := g.Observe(faulty)
	if o.TopDist < 0 || o.TopDist > 1 || o.AllDist < 0 || o.AllDist > 1 {
		t.Fatalf("distances out of [0,1]: %+v", o)
	}
}

func TestClassDistCapsNonFinite(t *testing.T) {
	if classDist(math.NaN(), 0.5) != 1 || classDist(math.Inf(1), 0.5) != 1 {
		t.Fatal("non-finite target confidence not capped at distance 1")
	}
	t1, g1 := 0.7, 0.5
	if classDist(t1, g1) != math.Abs(t1-g1) {
		t.Fatal("finite distance altered")
	}
}

func TestObserveProbsCountsNonFinite(t *testing.T) {
	net := models.MLP(rng.New(11), 12, []int{8}, 5)
	g := Capture(net, testPatterns(4, 12))
	probs := g.Probs.Clone()
	probs.Data()[0] = math.NaN()
	probs.Data()[7] = math.Inf(1)
	o := g.ObserveProbs(probs)
	if o.NonFinite != 2 {
		t.Fatalf("NonFinite=%d, want 2", o.NonFinite)
	}
	if math.IsNaN(o.AllDist) || math.IsInf(o.AllDist, 0) {
		t.Fatalf("aggregate distance not finite: %v", o.AllDist)
	}
	if o.AllDist <= 0 || o.AllDist > 1 {
		t.Fatalf("poisoned entries should contribute capped distance: %v", o.AllDist)
	}
}

func TestTopKAllNaNRowDoesNotPanic(t *testing.T) {
	row := []float64{math.NaN(), math.NaN(), math.NaN()}
	got := topK(row, 3)
	if len(got) != 3 {
		t.Fatalf("topK on all-NaN row returned %v", got)
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 3 || seen[i] {
			t.Fatalf("topK on all-NaN row returned invalid indices %v", got)
		}
		seen[i] = true
	}
}
