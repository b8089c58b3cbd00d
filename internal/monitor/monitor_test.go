package monitor

import (
	"math"
	"strings"
	"testing"

	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

func testMonitor(t *testing.T, calib []CalibPoint) (*Monitor, *nn.Network) {
	t.Helper()
	net := models.MLP(rng.New(1), 16, []int{12}, 5)
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	return New(net, patterns, calib), net
}

func TestHealthyOnIdealModel(t *testing.T) {
	m, net := testMonitor(t, nil)
	rep := m.Check(NetworkInfer(net))
	if rep.Status != Healthy {
		t.Fatalf("ideal model reported %s", rep.Status)
	}
	if rep.AllDist != 0 || rep.TopDist != 0 {
		t.Fatalf("ideal model distances %v/%v", rep.AllDist, rep.TopDist)
	}
	if rep.EstAccuracy != -1 {
		t.Fatalf("no calibration but EstAccuracy=%v", rep.EstAccuracy)
	}
	if rep.Action != "none" {
		t.Fatalf("healthy action %q", rep.Action)
	}
}

// TestNetworkInferTracksWeightMutation: one Infer outlives many probes, and
// the monitor's fault sweeps mutate networks in place between them — the
// change must show on the next probe, at the bits of a freshly compiled plan.
func TestNetworkInferTracksWeightMutation(t *testing.T) {
	m, net := testMonitor(t, nil)
	infer := NetworkInfer(net)
	x := m.golden.Patterns.X
	before := infer(x).Clone()
	net.Params()[0].Value.Apply(func(v float64) float64 { return v * 0.5 })
	after := infer(x)
	if after.Equal(before) {
		t.Fatal("probe did not see the in-place weight mutation")
	}
	if !after.Equal(engine.MustCompile(net, engine.Options{}).Probs(x)) {
		t.Fatal("probe after mutation diverges from a fresh plan")
	}
}

func TestDegradationEscalatesStatus(t *testing.T) {
	m, net := testMonitor(t, nil)
	last := Healthy
	for _, sigma := range []float64{0.1, 0.5, 1.5, 3} {
		faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: sigma}, 7)
		rep := m.Check(NetworkInfer(faulty))
		if rep.Status < last {
			t.Fatalf("status regressed from %s to %s at σ=%v", last, rep.Status, sigma)
		}
		last = rep.Status
	}
	if last < Impaired {
		t.Fatalf("σ=3 corruption only reached %s", last)
	}
}

func TestStatusThresholds(t *testing.T) {
	m, _ := testMonitor(t, nil)
	cases := []struct {
		dist float64
		want Status
	}{
		{0.0, Healthy},
		{DegradedAt, Degraded},
		{ImpairedAt, Impaired},
		{CriticalAt, Critical},
		{0.5, Critical},
	}
	for _, c := range cases {
		// feed synthetic confidences whose mean |Δ| from golden equals
		// exactly c.dist (the monitor never renormalises, so a uniform
		// shift is fine for threshold testing)
		rep := m.Check(func(x *tensor.Tensor) *tensor.Tensor {
			probs := m.golden.Probs.Clone()
			// tiny epsilon absorbs float rounding in (v+d)−v at the
			// threshold boundary
			probs.Apply(func(v float64) float64 { return v + c.dist + 1e-9 })
			return probs
		})
		if rep.Status != c.want {
			t.Errorf("distance %v → %s, want %s", c.dist, rep.Status, c.want)
		}
	}
}

// TestEstimateAccuracyUncalibrated: no calibration estimates nothing (-1).
func TestEstimateAccuracyUncalibrated(t *testing.T) {
	if m, _ := testMonitor(t, nil); m.EstimateAccuracy(0.05) != -1 {
		t.Fatal("an uncalibrated monitor estimated an accuracy")
	}
}

func TestEstimateAccuracyInterpolation(t *testing.T) {
	calib := []CalibPoint{
		{Distance: 0.10, Accuracy: 0.80}, // deliberately unsorted
		{Distance: 0.00, Accuracy: 0.99},
		{Distance: 0.05, Accuracy: 0.90},
	}
	m, _ := testMonitor(t, calib)
	// exact calibration points
	for _, c := range calib {
		if got := m.EstimateAccuracy(c.Distance); math.Abs(got-c.Accuracy) > 1e-12 {
			t.Errorf("EstimateAccuracy(%v)=%v, want %v", c.Distance, got, c.Accuracy)
		}
	}
	// midpoint interpolation
	if got := m.EstimateAccuracy(0.025); math.Abs(got-0.945) > 1e-12 {
		t.Errorf("midpoint estimate %v, want 0.945", got)
	}
	// clamping outside the calibrated range
	if got := m.EstimateAccuracy(-1); got != 0.99 {
		t.Errorf("below-range estimate %v", got)
	}
	if got := m.EstimateAccuracy(9); got != 0.80 {
		t.Errorf("above-range estimate %v", got)
	}
}

func TestHistoryAndTrend(t *testing.T) {
	m, net := testMonitor(t, nil)
	for _, sigma := range []float64{0.05, 0.3, 0.8} {
		faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: sigma}, 11)
		m.Check(NetworkInfer(faulty))
	}
	if len(m.History()) != 3 {
		t.Fatalf("history has %d entries", len(m.History()))
	}
	slope, summary := m.Trend()
	if slope <= 0 {
		t.Fatalf("monotone degradation has slope %v", slope)
	}
	if summary.N != 3 {
		t.Fatalf("trend summary over %d rounds", summary.N)
	}
	if m.History()[2].Round != 3 {
		t.Fatalf("round numbering wrong: %+v", m.History()[2])
	}
}

func TestReportString(t *testing.T) {
	m, net := testMonitor(t, []CalibPoint{{0, 0.99}, {0.5, 0.5}})
	faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: 2}, 13)
	rep := m.Check(NetworkInfer(faulty))
	s := rep.String()
	for _, want := range []string{"round 1", "status=", "estAcc="} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestStatusStringsAndActions(t *testing.T) {
	for s, wantName := range map[Status]string{
		Healthy: "HEALTHY", Degraded: "DEGRADED", Impaired: "IMPAIRED", Critical: "CRITICAL",
	} {
		if s.String() != wantName {
			t.Errorf("Status(%d).String()=%q", int(s), s.String())
		}
		if s.Action() == "" {
			t.Errorf("Status %s has empty action", s)
		}
	}
}

func TestDetectedFlagsPopulated(t *testing.T) {
	m, net := testMonitor(t, nil)
	faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: 2}, 17)
	rep := m.Check(NetworkInfer(faulty))
	if len(rep.Detected) != len(AllCriteria) {
		t.Fatalf("report evaluates %d criteria, want %d", len(rep.Detected), len(AllCriteria))
	}
	any := false
	for _, v := range rep.Detected {
		any = any || v
	}
	if !any {
		t.Fatal("massive corruption triggered no criterion")
	}
}

func TestPatternCount(t *testing.T) {
	m, _ := testMonitor(t, nil)
	if m.PatternCount() != 8 {
		t.Fatalf("PatternCount=%d", m.PatternCount())
	}
}
