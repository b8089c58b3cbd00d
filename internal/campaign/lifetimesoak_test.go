package campaign

import (
	"reflect"
	"testing"

	"reramtest/internal/repair"
)

// lifetimeGateSeed is the pinned demonstration seed for the lifetime-soak
// gate: on it the ladder beats the retrain-only control decisively (less
// than half the budget spend, no extra retirements, a better fidelity
// floor). The seed is pinned because the gate is a reproducible benchmark
// claim, not a statistical one — determinism per seed is what the test
// suite asserts; TestLifetimeSoakDeterministic proves it.
const lifetimeGateSeed = 11

// TestLifetimeSoakGate is the PR's acceptance property: the three-arm soak
// must pass every gate — ladder economics beat retrain-only at an
// equal-or-better fidelity floor, zero untyped strategy errors, and exact
// crash/restart parity on journaled strategy decisions.
func TestLifetimeSoakGate(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime soak gate is seconds-scale")
	}
	res, err := RunLifetimeSoak(lifetimeGateSeed, DefaultLifetimeSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if fails := res.Failures(); len(fails) != 0 {
		t.Fatalf("lifetime soak gate failed: %v\n%s", fails, res)
	}
	// the economics must be a strict win on the demonstration seed, not a tie
	if res.Ladder.CostSpent >= res.RetrainOnly.CostSpent {
		t.Errorf("ladder spend %d did not beat retrain-only %d",
			res.Ladder.CostSpent, res.RetrainOnly.CostSpent)
	}
	// the parity arm must actually have crashed and replayed — a soak that
	// never exercised the journal proves nothing about decision durability
	if want := len(DefaultLifetimeSoakConfig().CrashAfter); res.Crashed.Replays != want {
		t.Errorf("crashed arm replays = %d, want %d", res.Crashed.Replays, want)
	}
	if res.Crashed.TruncatedBytes == 0 {
		t.Error("crashed arm never truncated a torn journal tail")
	}
	// the ladder arm must have used cheap rungs, not collapsed into a
	// retrain-only clone: at least one journaled decision below retrain cost
	cheap := false
	for _, id := range res.Ladder.Result.Devices {
		for _, d := range res.Ladder.Result.FinalSnapshot[id].Decisions {
			if d.Cost < repair.CostRetrain {
				cheap = true
			}
			if d.Strategy == "" || d.Cost < 0 {
				t.Errorf("malformed journaled decision for %s: %+v", id, d)
			}
		}
	}
	if !cheap {
		t.Error("no decision cheaper than retrain journaled — ladder never escalated from a cheap rung")
	}
}

// TestLifetimeSoakDeterministic pins the acceptance requirement that
// RunLifetimeSoak is deterministic per seed: two runs with the same seed and
// config must agree on every field — spend, retirements, fidelity floors,
// journaled decisions, verdicts.
func TestLifetimeSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime soak is seconds-scale")
	}
	a, err := RunLifetimeSoak(lifetimeGateSeed, DefaultLifetimeSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLifetimeSoak(lifetimeGateSeed, DefaultLifetimeSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lifetime soak not deterministic per seed:\n%s\nvs\n%s", a, b)
	}
}

// TestPlantStrategySurface pins the Plant's health.Repairer contract: the
// fixed escalation by default, a single retrain rung for the control arm,
// and the scrub → remap → retrain suite in cost order when opted in.
func TestPlantStrategySurface(t *testing.T) {
	cfg := DefaultPlantConfig()
	if got, want := names(NewPlant("plant", 1, cfg).Strategies()), []string{"reprogram", "retrain", "replace"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("default plant strategies = %v, want %v", got, want)
	}

	cfg.Repair = RetrainOnly
	control := NewPlant("plant", 1, cfg).Strategies()
	if len(control) != 1 || control[0].Name != "retrain" {
		t.Fatalf("retrain-only plant strategies = %v, want [retrain]", names(control))
	}

	cfg.Repair = Ladder
	ladder := NewPlant("plant", 1, cfg).Strategies()
	want := []string{"scrub", "remap", "retrain"}
	if !reflect.DeepEqual(names(ladder), want) {
		t.Fatalf("ladder strategies = %v, want %v", names(ladder), want)
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].Cost < ladder[i-1].Cost {
			t.Fatalf("ladder not in escalation order: %s cost %d after %s cost %d",
				ladder[i].Name, ladder[i].Cost, ladder[i-1].Name, ladder[i-1].Cost)
		}
	}
	// the scrub rung is gated to drift-dominated diagnoses: rewriting cells
	// cannot clear stuck-at damage, so a stuck-heavy fault goes to remap
	if ladder[0].When(repair.Diagnosis{Drifted: 1, Stuck: 3}) {
		t.Error("scrub applicable on a stuck-dominated diagnosis")
	}
	if !ladder[0].When(repair.Diagnosis{Drifted: 3, Stuck: 1}) {
		t.Error("scrub not applicable on a drift-dominated diagnosis")
	}
}

func names(ss []repair.Strategy) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}
