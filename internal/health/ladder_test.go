package health

import (
	"context"
	"errors"
	"testing"

	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/tensor"
)

// scriptedLadder is a Repairer whose rungs are scripted: damage
// clears only when the strategy named fixedBy applies cleanly, and rungs in
// failing error out of Apply.
type scriptedLadder struct {
	diag    repair.Diagnosis
	fixedBy string
	fixed   bool
	failing map[string]bool
	applied []string
}

func (s *scriptedLadder) Diagnose(monitor.Status) repair.Diagnosis { return s.diag }

func (s *scriptedLadder) rung(name string, cost int, when func(repair.Diagnosis) bool) repair.Strategy {
	return repair.Strategy{
		Name: name, Cost: cost, When: when,
		Apply: func(ctx context.Context, _ repair.Diagnosis) (repair.Report, error) {
			s.applied = append(s.applied, name)
			if s.failing[name] {
				return repair.Report{}, &repair.Error{Strategy: name, Op: "apply", Err: errors.New("actuator offline")}
			}
			if name == s.fixedBy {
				s.fixed = true
			}
			return repair.Report{}, nil
		},
	}
}

func (s *scriptedLadder) Strategies() []repair.Strategy {
	return []repair.Strategy{
		s.rung("scrub", repair.CostScrub, func(d repair.Diagnosis) bool { return d.Drifted > 0 }),
		s.rung("remap", repair.CostRemap, func(d repair.Diagnosis) bool { return d.Stuck > 0 }),
		s.rung("retrain", repair.CostRetrain, func(d repair.Diagnosis) bool { return d.Drifted > 0 || d.Stuck > 0 }),
	}
}

// ladderInfer reads Degraded until the scripted repair lands.
func ladderInfer(net *nn.Network, s *scriptedLadder) monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		d := 0.04
		if s.fixed {
			d = 0
		}
		probs := probsOf(net, x)
		probs.Apply(func(v float64) float64 { return v + d + 1e-9 })
		return probs
	}
}

func TestLadderEscalatesAndChargesCosts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	sl := &scriptedLadder{diag: repair.Diagnosis{Drifted: 3, Stuck: 2}, fixedBy: "retrain"}

	ep := rt.Supervise(context.Background(), ladderInfer(net, sl), sl, 10)
	if !ep.Recovered || ep.GaveUp {
		t.Fatalf("ladder episode did not recover: %+v", ep)
	}
	want := []string{"scrub", "remap", "retrain"}
	if len(sl.applied) != len(want) {
		t.Fatalf("applied %v, want %v", sl.applied, want)
	}
	for i := range want {
		if sl.applied[i] != want[i] {
			t.Fatalf("applied %v, want %v", sl.applied, want)
		}
	}
	if ep.CostSpent != repair.CostScrub+repair.CostRemap+repair.CostRetrain {
		t.Fatalf("CostSpent %d, want %d", ep.CostSpent, repair.CostScrub+repair.CostRemap+repair.CostRetrain)
	}
	if len(ep.Attempts) != 3 {
		t.Fatalf("attempts %d, want 3", len(ep.Attempts))
	}
	for i, a := range ep.Attempts {
		if a.Strategy != want[i] {
			t.Fatalf("attempt %d strategy %q, want %q", i, a.Strategy, want[i])
		}
	}
	if !ep.Attempts[2].Verified || ep.Attempts[0].Verified {
		t.Fatalf("verification flags wrong: %+v", ep)
	}
	if rt.Confirmed() != monitor.Healthy {
		t.Fatalf("confirmed %s after verified ladder repair", rt.Confirmed())
	}
}

func TestLadderSkipsInapplicableRungs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	// no drift: the scrub rung must never run
	sl := &scriptedLadder{diag: repair.Diagnosis{Stuck: 4}, fixedBy: "remap"}

	ep := rt.Supervise(context.Background(), ladderInfer(net, sl), sl, 10)
	if !ep.Recovered {
		t.Fatalf("episode did not recover: %+v", ep)
	}
	if len(sl.applied) != 1 || sl.applied[0] != "remap" {
		t.Fatalf("applied %v, want [remap]", sl.applied)
	}
	if ep.CostSpent != repair.CostRemap {
		t.Fatalf("CostSpent %d, want %d", ep.CostSpent, repair.CostRemap)
	}
}

func TestLadderStopsBeforeOverspendingKeepsDeviceWhenCheapRungRemains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	// drift only: scrub (cost 1) and retrain (cost 4) apply; nothing fixes
	sl := &scriptedLadder{diag: repair.Diagnosis{Drifted: 1}, fixedBy: ""}

	ep := rt.Supervise(context.Background(), ladderInfer(net, sl), sl, 3)
	if ep.Recovered || !ep.GaveUp {
		t.Fatalf("unfixable episode: %+v", ep)
	}
	// scrub ran (cost 1); retrain at cost 4 exceeds the remaining 2 and must
	// NOT have been applied
	if len(sl.applied) != 1 || sl.applied[0] != "scrub" {
		t.Fatalf("applied %v, want [scrub]", sl.applied)
	}
	if ep.CostSpent != repair.CostScrub {
		t.Fatalf("CostSpent %d, want %d", ep.CostSpent, repair.CostScrub)
	}
	// a future episode can still afford a scrub: the device must not be
	// condemned yet
	if ep.RetireAdvised {
		t.Fatalf("retire advised while the cheapest applicable rung still fits: %+v", ep)
	}
}

func TestLadderAdvisesRetirementWhenCheapestRungExceedsBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	// stuck only: remap (cost 2) and retrain (cost 4) apply; nothing fixes
	sl := &scriptedLadder{diag: repair.Diagnosis{Stuck: 1}, fixedBy: ""}

	ep := rt.Supervise(context.Background(), ladderInfer(net, sl), sl, 3)
	if ep.Recovered || !ep.GaveUp {
		t.Fatalf("unfixable episode: %+v", ep)
	}
	// remap ran (cost 2), leaving 1: no applicable rung fits ever again
	if !ep.RetireAdvised {
		t.Fatalf("retirement not advised with 1 budget left and cheapest rung at cost 2: %+v", ep)
	}
	if ep.CostSpent != repair.CostRemap {
		t.Fatalf("CostSpent %d, want %d", ep.CostSpent, repair.CostRemap)
	}
}

func TestLadderAdvisesRetirementWhenNothingApplies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	// damage the cell census cannot see (no drifted or stuck cell): no
	// scripted rung applies
	sl := &scriptedLadder{diag: repair.Diagnosis{Status: monitor.Degraded}, fixedBy: ""}

	ep := rt.Supervise(context.Background(), ladderInfer(net, sl), sl, 10)
	if !ep.GaveUp || !ep.RetireAdvised {
		t.Fatalf("no-applicable-strategy episode must give up and advise retirement: %+v", ep)
	}
	if len(ep.Attempts) != 0 || ep.CostSpent != 0 {
		t.Fatalf("no rung applies but attempts=%d cost=%d", len(ep.Attempts), ep.CostSpent)
	}
}

func TestLadderChargesCostOnApplyError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	sl := &scriptedLadder{
		diag:    repair.Diagnosis{Drifted: 1},
		fixedBy: "retrain",
		failing: map[string]bool{"scrub": true},
	}

	ep := rt.Supervise(context.Background(), ladderInfer(net, sl), sl, 10)
	if !ep.Recovered {
		t.Fatalf("episode did not recover past the failing rung: %+v", ep)
	}
	if ep.Attempts[0].ApplyErr == nil || !repair.IsTyped(ep.Attempts[0].ApplyErr) {
		t.Fatalf("failing rung's typed error not recorded: %+v", ep.Attempts[0])
	}
	// hardware wear is charged even when the actuator errors
	if ep.CostSpent != repair.CostScrub+repair.CostRetrain {
		t.Fatalf("CostSpent %d, want %d", ep.CostSpent, repair.CostScrub+repair.CostRetrain)
	}
}

func TestLadderCanceledCtxCondemnsNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	sl := &scriptedLadder{diag: repair.Diagnosis{Drifted: 1}, fixedBy: "scrub"}
	rt.Check(context.Background(), ladderInfer(net, sl))
	if rt.Confirmed() < monitor.Degraded {
		t.Fatalf("setup: confirmed %s", rt.Confirmed())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ep := rt.Supervise(ctx, ladderInfer(net, sl), sl, 10)
	if len(sl.applied) != 0 {
		t.Fatalf("canceled episode still applied rungs: %v", sl.applied)
	}
	if ep.GaveUp || ep.RetireAdvised {
		t.Fatalf("drain-time cancellation condemned the device: %+v", ep)
	}
}
