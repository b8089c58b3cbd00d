package health

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// testRuntime builds a runtime over a tiny MLP monitor with no real backoff
// sleeping.
func testRuntime(t *testing.T, cfg Config) (*Runtime, *nn.Network) {
	t.Helper()
	net := models.MLP(rng.New(1), 16, []int{12}, 5)
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	mon := monitor.New(net, patterns, nil)
	cfg.Sleep = func(time.Duration) {}
	rt, err := New(mon, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt, net
}

// shiftInfer fabricates confidences at an exact distance from golden by
// running the clean model and shifting every confidence.
func shiftInfer(net *nn.Network, dist float64) monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		probs := probsOf(net, x)
		probs.Apply(func(v float64) float64 { return v + dist + 1e-9 })
		return probs
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.EscalateAfter = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("EscalateAfter=0 accepted")
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil monitor accepted")
	}
	bad = DefaultConfig()
	bad.BackoffBase = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative BackoffBase accepted")
	}
	rt, _ := testRuntime(t, DefaultConfig())
	if _, err := New(rt.Monitor(), bad); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

func TestHysteresisSuppressesTransientFlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	rt, net := testRuntime(t, cfg)

	clean := shiftInfer(net, 0)
	noisy := shiftInfer(net, 0.04) // raw Degraded for one round

	r1 := rt.Check(context.Background(), clean)
	r2 := rt.Check(context.Background(), noisy) // single-round glitch
	r3 := rt.Check(context.Background(), clean)
	if r2.Raw != monitor.Degraded {
		t.Fatalf("glitch round raw=%s, want DEGRADED (the raw monitor flaps here)", r2.Raw)
	}
	for i, r := range []Round{r1, r2, r3} {
		if r.Confirmed != monitor.Healthy {
			t.Fatalf("round %d confirmed=%s, want HEALTHY (debounce must absorb 1-round glitch)", i+1, r.Confirmed)
		}
	}
	if flips := rt.ExportState().Flips; flips != 0 {
		t.Fatalf("confirmed status flapped %d times on a transient", flips)
	}
}

func TestHysteresisConfirmsPersistentDamage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	rt, net := testRuntime(t, cfg)
	bad := shiftInfer(net, 0.12) // raw Critical

	r1 := rt.Check(context.Background(), bad)
	if r1.Confirmed != monitor.Healthy {
		t.Fatalf("confirmed after 1 round: %s", r1.Confirmed)
	}
	r2 := rt.Check(context.Background(), bad)
	if r2.Confirmed != monitor.Critical || !r2.Changed {
		t.Fatalf("persistent critical not confirmed after K rounds: %+v", r2)
	}
}

func TestHysteresisOscillatingElevatedEvidence(t *testing.T) {
	// raw alternating Impaired/Critical must still escalate (to the level
	// every round agreed on), not reset the streak forever
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	rt, net := testRuntime(t, cfg)
	if rt.Check(context.Background(), shiftInfer(net, 0.12)).Changed { // Critical
		t.Fatal("escalated after one round")
	}
	r2 := rt.Check(context.Background(), shiftInfer(net, 0.07)) // Impaired
	if r2.Confirmed != monitor.Impaired {
		t.Fatalf("oscillating elevated evidence confirmed %s, want IMPAIRED", r2.Confirmed)
	}
}

func TestDeescalationIsSlower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	rt, net := testRuntime(t, cfg)
	bad, clean := shiftInfer(net, 0.12), shiftInfer(net, 0)
	rt.Check(context.Background(), bad)
	rt.Check(context.Background(), bad) // confirmed Critical
	if rt.Confirmed() != monitor.Critical {
		t.Fatal("setup failed")
	}
	rt.Check(context.Background(), clean)
	rt.Check(context.Background(), clean)
	if rt.Confirmed() != monitor.Critical {
		t.Fatalf("de-escalated after only 2 clean rounds")
	}
	r := rt.Check(context.Background(), clean)
	if r.Confirmed != monitor.Healthy {
		t.Fatalf("not de-escalated after 3 clean rounds: %s", r.Confirmed)
	}
}

func TestPoisonedInferNaN(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	nan := func(x *tensor.Tensor) *tensor.Tensor {
		probs := probsOf(net, x)
		probs.Data()[3] = math.NaN()
		return probs
	}
	r := rt.Check(context.Background(), nan)
	if r.ReadoutOK {
		t.Fatal("NaN readout accepted")
	}
	if !r.SensorFault || r.Raw == monitor.Healthy {
		t.Fatalf("poisoned readout round: %+v", r)
	}
	if r.Rejected != 1+MaxReadRetries {
		t.Fatalf("rejected %d attempts, want %d", r.Rejected, 1+MaxReadRetries)
	}
}

func TestPoisonedInferShapeAndNil(t *testing.T) {
	rt, _ := testRuntime(t, DefaultConfig())
	r := rt.Check(context.Background(), func(x *tensor.Tensor) *tensor.Tensor { return tensor.New(2, 2) })
	if r.ReadoutOK || !r.SensorFault || r.Raw == monitor.Healthy {
		t.Fatalf("wrong-shape readout: %+v", r)
	}
	r = rt.Check(context.Background(), func(x *tensor.Tensor) *tensor.Tensor { return nil })
	if r.ReadoutOK || !r.SensorFault || r.Raw == monitor.Healthy {
		t.Fatalf("nil readout: %+v", r)
	}
}

func TestPoisonedInferPanicRecovered(t *testing.T) {
	rt, _ := testRuntime(t, DefaultConfig())
	r := rt.Check(context.Background(), func(x *tensor.Tensor) *tensor.Tensor { panic("dead sensor") })
	if r.ReadoutOK || !r.SensorFault || r.Raw == monitor.Healthy {
		t.Fatalf("panicking readout: %+v", r)
	}
	_, panics := rt.RejectedReadouts()
	if panics != 1+MaxReadRetries {
		t.Fatalf("recovered %d panics, want %d", panics, 1+MaxReadRetries)
	}
}

func TestRetryRecoversFlakyReadout(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	calls := 0
	flaky := func(x *tensor.Tensor) *tensor.Tensor {
		calls++
		if calls == 1 {
			panic("transient")
		}
		return probsOf(net, x)
	}
	r := rt.Check(context.Background(), flaky)
	if !r.ReadoutOK || r.Rejected != 1 {
		t.Fatalf("flaky readout not recovered by retry: %+v", r)
	}
	if r.Raw != monitor.Healthy {
		t.Fatalf("recovered readout classified %s", r.Raw)
	}
}

func TestBackoffIsBoundedExponential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackoffBase = 10 * time.Millisecond
	cfg.BackoffMax = 25 * time.Millisecond
	rt, _ := testRuntime(t, cfg)
	var slept []time.Duration
	rt.cfg.Sleep = func(d time.Duration) { slept = append(slept, d) }
	rt.Check(context.Background(), func(x *tensor.Tensor) *tensor.Tensor { return nil })
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestHistoryRingBounded(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	clean := shiftInfer(net, 0)
	for i := 0; i < MaxHistory+6; i++ {
		rt.Check(context.Background(), clean)
	}
	hist := rt.History()
	if len(hist) != MaxHistory {
		t.Fatalf("history kept %d rounds, want %d", len(hist), MaxHistory)
	}
	for i, r := range hist {
		if r.Seq != 7+i {
			t.Fatalf("history out of order: %+v", hist)
		}
	}
}

// escalation is the Repairer of a device with the fixed escalation: the
// three repair.Escalation rungs, each calling the function with its index
// (rungReprogram, rungRetrain, rungReplace).
type escalation func(rung int) (*nn.Network, error)

// Indices of the repair.Escalation rungs; rungNone is above the ladder (no
// rung clears the damage).
const (
	rungReprogram = iota
	rungRetrain
	rungReplace
	rungNone = 99
)

var rungNames = []string{"reprogram", "retrain", "replace"}

func (f escalation) Strategies() []repair.Strategy {
	at := func(rung int) func() (*nn.Network, error) {
		return func() (*nn.Network, error) { return f(rung) }
	}
	return repair.Escalation(at(rungReprogram), at(rungRetrain), at(rungReplace))
}

func (f escalation) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	return repair.Diagnosis{Status: confirmed}
}

// stepRepairer simulates hardware whose damage only the given rung or one
// above it can clear.
type stepRepairer struct {
	needs   int
	applied []int
	fixed   bool
}

func (s *stepRepairer) apply(rung int) (*nn.Network, error) {
	s.applied = append(s.applied, rung)
	if rung >= s.needs {
		s.fixed = true
	}
	return nil, nil
}

func TestSuperviseEscalatesUntilVerified(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1 // confirm immediately: this test targets the repair loop
	rt, net := testRuntime(t, cfg)
	sr := &stepRepairer{needs: rungRetrain}
	infer := func(x *tensor.Tensor) *tensor.Tensor {
		d := 0.04 // Degraded until fixed
		if sr.fixed {
			d = 0
		}
		probs := probsOf(net, x)
		probs.Apply(func(v float64) float64 { return v + d + 1e-9 })
		return probs
	}
	ep := rt.Supervise(context.Background(), infer, escalation(sr.apply), 3)
	if !ep.Recovered || ep.GaveUp {
		t.Fatalf("episode did not recover: %+v", ep)
	}
	wantLadder := []int{rungReprogram, rungRetrain}
	if len(sr.applied) != len(wantLadder) {
		t.Fatalf("applied %v, want %v", sr.applied, wantLadder)
	}
	for i := range wantLadder {
		if sr.applied[i] != wantLadder[i] {
			t.Fatalf("applied %v, want %v", sr.applied, wantLadder)
		}
	}
	if rt.Confirmed() != monitor.Healthy {
		t.Fatalf("confirmed %s after verified repair", rt.Confirmed())
	}
}

func TestSuperviseGivesUpGracefully(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	bad := shiftInfer(net, 0.12) // Critical, unrepairable
	sr := &stepRepairer{needs: rungNone}
	ep := rt.Supervise(context.Background(), bad, escalation(sr.apply), 3)
	if ep.Recovered || !ep.GaveUp {
		t.Fatalf("unrepairable damage not given up: %+v", ep)
	}
	if len(ep.Attempts) == 0 || ep.Recommendation == "none" {
		t.Fatalf("give-up episode carries no escalation advice: %+v", ep)
	}
	if rt.Confirmed() == monitor.Healthy {
		t.Fatal("gave up but reports Healthy")
	}
}

func TestSuperviseRepairApplyError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	bad := shiftInfer(net, 0.04)
	failing := escalation(func(int) (*nn.Network, error) {
		return nil, errors.New("actuator offline")
	})
	ep := rt.Supervise(context.Background(), bad, failing, 2)
	if !ep.GaveUp || len(ep.Attempts) != 2 {
		t.Fatalf("failing repairer episode: %+v", ep)
	}
	if ep.Attempts[0].ApplyErr == nil {
		t.Fatal("apply error not recorded")
	}
}

// TestEscalationRungsWalkTheFixedActionSchedule pins what an episode over
// repair.Escalation does: start at the cheapest rung applicable to the
// confirmed status, one rung up per failed verification, at most
// min(budget, ladder length) cycles, stop above replace, one budget unit
// and one rung-named attempt per cycle, retirement advised exactly when
// nothing is left to spend. The
// fleet's journaled decisions and campaign/testdata/fixed_escalation.json
// depend on every one of these.
func TestEscalationRungsWalkTheFixedActionSchedule(t *testing.T) {
	const degraded, impaired, critical = 0.04, 0.08, 0.12
	for _, tc := range []struct {
		name      string
		dist      float64
		needs     int
		budget    int
		want      []string
		recovered bool
		retire    bool
	}{
		{"degraded starts at reprogram", degraded, rungReprogram, 3, []string{"reprogram"}, true, false},
		{"impaired starts at retrain", impaired, rungRetrain, 3, []string{"retrain"}, true, false},
		{"critical starts at replace", critical, rungReplace, 3, []string{"replace"}, true, false},
		{"escalates to the top", degraded, rungReplace, 3, []string{"reprogram", "retrain", "replace"}, true, false},
		{"stops above replace", critical, rungNone, 3, []string{"replace"}, false, false},
		{"budget binds before the cap", degraded, rungNone, 1, []string{"reprogram"}, false, true},
		{"budget spent exactly on a full walk", degraded, rungNone, 3, []string{"reprogram", "retrain", "replace"}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.EscalateAfter = 1
			rt, net := testRuntime(t, cfg)
			sr := &stepRepairer{needs: tc.needs}
			infer := func(x *tensor.Tensor) *tensor.Tensor {
				if sr.fixed {
					return shiftInfer(net, 0)(x)
				}
				return shiftInfer(net, tc.dist)(x)
			}
			ep := rt.Supervise(context.Background(), infer, escalation(sr.apply), tc.budget)
			var got []string
			for _, att := range ep.Attempts {
				got = append(got, att.Strategy)
				if att.Cost != 1 {
					t.Fatalf("attempt %s cost %d, want 1", att.Strategy, att.Cost)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("attempts %v, want %v", got, tc.want)
			}
			for i, rung := range sr.applied {
				if rungNames[rung] != tc.want[i] {
					t.Fatalf("applied %v, want %v", sr.applied, tc.want)
				}
			}
			if ep.CostSpent != len(ep.Attempts) {
				t.Fatalf("CostSpent %d over %d attempts", ep.CostSpent, len(ep.Attempts))
			}
			if ep.Recovered != tc.recovered || ep.GaveUp == tc.recovered {
				t.Fatalf("recovered=%v gaveUp=%v, want recovered=%v: %+v", ep.Recovered, ep.GaveUp, tc.recovered, ep)
			}
			if ep.RetireAdvised != tc.retire {
				t.Fatalf("RetireAdvised=%v, want %v: %+v", ep.RetireAdvised, tc.retire, ep)
			}
		})
	}
}

func TestCheckCtxCanceledSkipsBackoffSchedule(t *testing.T) {
	rt, _ := testRuntime(t, DefaultConfig())
	sleeps, attempts := 0, 0
	rt.cfg.Sleep = func(time.Duration) { sleeps++ }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rt.Check(ctx, func(x *tensor.Tensor) *tensor.Tensor { attempts++; return nil })
	if attempts != 1 {
		t.Fatalf("canceled ctx ran %d attempts, want exactly the first", attempts)
	}
	if sleeps != 0 {
		t.Fatalf("canceled ctx still slept %d times", sleeps)
	}
	if !r.SensorFault || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("aborted round must be a sensor fault wrapping ctx.Err(): %+v", r)
	}
	if r.Raw == monitor.Healthy {
		t.Fatalf("aborted readout round reports raw %s", r.Raw)
	}
}

func TestCheckCtxCancelCutsRealBackoffSleep(t *testing.T) {
	net := models.MLP(rng.New(1), 16, []int{12}, 5)
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	cfg := DefaultConfig()
	cfg.BackoffBase = 30 * time.Second // would dominate the test if not cut
	cfg.BackoffMax = 30 * time.Second
	rt, err := New(monitor.New(net, patterns, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	r := rt.Check(ctx, func(x *tensor.Tensor) *tensor.Tensor { return nil })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not cut the 30s backoff sleep: took %v", elapsed)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("round error %v does not wrap the deadline", r.Err)
	}
}

func TestSuperviseCanceledCtxStartsNoRepair(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	rt.Check(context.Background(), shiftInfer(net, 0.12))
	if rt.Confirmed() != monitor.Critical {
		t.Fatalf("setup: confirmed %s", rt.Confirmed())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sr := &stepRepairer{needs: rungReprogram}
	ep := rt.Supervise(ctx, shiftInfer(net, 0.12), escalation(sr.apply), 3)
	if len(sr.applied) != 0 {
		t.Fatalf("canceled episode still applied repairs: %v", sr.applied)
	}
	if ep.GaveUp {
		t.Fatalf("drain-time cancellation must not condemn the device: %+v", ep)
	}
}

func TestSuperviseHealthyNoRepair(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	sr := &stepRepairer{}
	ep := rt.Supervise(context.Background(), shiftInfer(net, 0), escalation(sr.apply), 3)
	if ep.Repaired() || len(sr.applied) != 0 {
		t.Fatalf("healthy device was repaired: %+v", ep)
	}
}

// probsOf is net's softmax readout of x through a freshly compiled inference
// plan: a tensor of its own, which the caller may mutate.
func probsOf(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	return engine.MustCompile(net, engine.Options{}).Probs(x)
}
