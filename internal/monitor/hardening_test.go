package monitor

import (
	"math"
	"testing"

	"reramtest/internal/models"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

func patterns8x16() *testgen.PatternSet {
	return &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
}

func TestHistoryRingEviction(t *testing.T) {
	net := models.MLP(rng.New(1), 16, []int{12}, 5)
	m := New(net, patterns8x16(), nil)
	infer := NetworkInfer(net)
	for i := 0; i < MaxHistory+6; i++ {
		m.Check(infer)
	}
	hist := m.History()
	if len(hist) != MaxHistory {
		t.Fatalf("ring kept %d reports, want %d", len(hist), MaxHistory)
	}
	for i, rep := range hist {
		if rep.Round != 7+i {
			t.Fatalf("ring out of chronological order: rounds %v", roundsOf(hist))
		}
	}
	if m.rounds != MaxHistory+6 {
		t.Fatalf("%d rounds counted after %d checks", m.rounds, MaxHistory+6)
	}
}

func TestTrendDegenerateHistories(t *testing.T) {
	m, net := testMonitor(t, nil)

	// empty history
	slope, summary := m.Trend()
	if slope != 0 || summary.N != 0 {
		t.Fatalf("empty trend: slope=%v N=%d", slope, summary.N)
	}

	// single report: a one-point fit has no slope
	m.Check(NetworkInfer(net))
	slope, summary = m.Trend()
	if slope != 0 || summary.N != 1 {
		t.Fatalf("1-point trend: slope=%v N=%d", slope, summary.N)
	}
	if math.IsNaN(summary.Mean) {
		t.Fatal("1-point summary mean is NaN")
	}

	// two identical reports: zero slope, not NaN
	m.Check(NetworkInfer(net))
	slope, summary = m.Trend()
	if math.IsNaN(slope) || slope != 0 || summary.N != 2 {
		t.Fatalf("2-point flat trend: slope=%v N=%d", slope, summary.N)
	}
}

func TestNaNReadoutNeverHealthy(t *testing.T) {
	m, _ := testMonitor(t, nil)
	rep := m.Check(func(x *tensor.Tensor) *tensor.Tensor {
		probs := m.golden.Probs.Clone()
		probs.Data()[0] = math.NaN()
		return probs
	})
	if rep.Status == Healthy {
		t.Fatalf("single NaN confidence classified Healthy: %+v", rep)
	}
	if rep.NonFinite != 1 {
		t.Fatalf("NonFinite=%d, want 1", rep.NonFinite)
	}
	if math.IsNaN(rep.AllDist) {
		t.Fatal("AllDist propagated NaN instead of capping the poisoned entry")
	}
}

func TestAllNaNReadoutIsCritical(t *testing.T) {
	m, _ := testMonitor(t, nil)
	rep := m.Check(func(x *tensor.Tensor) *tensor.Tensor {
		probs := m.golden.Probs.Clone()
		probs.Apply(func(float64) float64 { return math.NaN() })
		return probs
	})
	if rep.Status != Critical {
		t.Fatalf("fully poisoned readout classified %s, want CRITICAL", rep.Status)
	}
}

func TestEstimateAccuracyNonFinite(t *testing.T) {
	calib := []CalibPoint{{Distance: 0, Accuracy: 0.99}, {Distance: 0.5, Accuracy: 0.4}}
	m, _ := testMonitor(t, calib)
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		if got := m.EstimateAccuracy(d); got != 0.4 {
			t.Errorf("EstimateAccuracy(%v)=%v, want the worst calibrated accuracy 0.4", d, got)
		}
	}
	if got := m.EstimateAccuracy(math.Inf(-1)); got != 0.99 {
		t.Errorf("EstimateAccuracy(-Inf)=%v, want clamp to best accuracy", got)
	}
}

func TestRecommissionTracksNewReference(t *testing.T) {
	m, _ := testMonitor(t, nil)
	other := models.MLP(rng.New(33), 16, []int{12}, 5)
	rep := m.Check(NetworkInfer(other))
	if rep.AllDist == 0 {
		t.Fatal("distinct model reads identical to the reference")
	}
	m.Recommission(other)
	rep = m.Check(NetworkInfer(other))
	if rep.Status != Healthy || rep.AllDist != 0 {
		t.Fatalf("after recommissioning, the new reference reports %+v", rep)
	}
	if rep.Round != 2 {
		t.Fatalf("recommissioning reset round numbering: %d", rep.Round)
	}
}

func roundsOf(hist []Report) []int {
	out := make([]int, len(hist))
	for i, r := range hist {
		out[i] = r.Round
	}
	return out
}
