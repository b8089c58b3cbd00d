package fleet

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"reramtest/internal/health"
	"reramtest/internal/journal"
	"reramtest/internal/monitor"
	"reramtest/internal/repair"
)

// ladderDevice is a fakeDevice whose repairer exposes a strategy ladder
// (scrub → remap → retrain) with scripted applicability and outcome: damage
// clears only when the rung named fixedBy applies.
type ladderDevice struct {
	*fakeDevice
	drifted, stuck int // scripted diagnosis
	fixedBy        string
	applied        []string
}

func (d *ladderDevice) Repairer() health.Repairer { return d }

func (d *ladderDevice) Diagnose(monitor.Status) repair.Diagnosis {
	return repair.Diagnosis{Drifted: d.drifted, Stuck: d.stuck}
}

func (d *ladderDevice) rung(name string, cost int, when func(repair.Diagnosis) bool) repair.Strategy {
	return repair.Strategy{
		Name: name, Cost: cost, When: when,
		Apply: func(context.Context, repair.Diagnosis) (repair.Report, error) {
			d.applied = append(d.applied, name)
			if name == d.fixedBy {
				d.damaged = false
			}
			return repair.Report{}, nil
		},
	}
}

func (d *ladderDevice) Strategies() []repair.Strategy {
	return []repair.Strategy{
		d.rung("scrub", repair.CostScrub, func(dg repair.Diagnosis) bool { return dg.Drifted > 0 }),
		d.rung("remap", repair.CostRemap, func(dg repair.Diagnosis) bool { return dg.Stuck > 0 }),
		d.rung("retrain", repair.CostRetrain, func(repair.Diagnosis) bool { return true }),
	}
}

func ladderFleet(n int) ([]*ladderDevice, []Device) {
	base := testFleet(n)
	devs := make([]*ladderDevice, n)
	out := make([]Device, n)
	for i, fd := range base {
		devs[i] = &ladderDevice{fakeDevice: fd}
		out[i] = devs[i]
	}
	return devs, out
}

// TestFleetMixedCostBudgetAccounting is the budget-accounting gate for
// mixed-cost repairs: the lifetime budget must decrement by the sum of
// strategy Cost() values actually applied — not by the attempt count — and
// the decision log must record every rung with its cost and verdict.
func TestFleetMixedCostBudgetAccounting(t *testing.T) {
	devs, asDev := ladderFleet(1)
	devs[0].damageFrom = 2
	devs[0].drifted, devs[0].stuck = 1, 1
	devs[0].fixedBy = "retrain"
	cfg := testConfig()
	cfg.RepairBudget = 10
	sup, err := New(asDev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	var repairRound RoundResult
	for round := 1; round <= 10 && !repairRound.Repaired; round++ {
		advance([]*fakeDevice{devs[0].fakeDevice}, round)
		results, err := sup.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Repaired {
			repairRound = results[0]
		}
	}
	if !repairRound.Repaired || !repairRound.Recovered {
		t.Fatalf("ladder repair never ran/recovered: %+v", repairRound)
	}
	wantCost := repair.CostScrub + repair.CostRemap + repair.CostRetrain
	if repairRound.Attempts != 3 || repairRound.CostSpent != wantCost {
		t.Fatalf("repair round attempts=%d cost=%d, want 3/%d", repairRound.Attempts, repairRound.CostSpent, wantCost)
	}
	if repairRound.BudgetLeft != 10-wantCost {
		t.Fatalf("budget decremented by attempts, not cost: left=%d want=%d", repairRound.BudgetLeft, 10-wantCost)
	}

	snap := sup.Snapshot()[devs[0].id]
	if snap.Budget != 10-wantCost {
		t.Fatalf("snapshot budget %d, want %d", snap.Budget, 10-wantCost)
	}
	wantLog := []string{"scrub", "remap", "retrain"}
	wantCosts := []int{repair.CostScrub, repair.CostRemap, repair.CostRetrain}
	if len(snap.Decisions) != len(wantLog) {
		t.Fatalf("decision log %+v, want 3 entries", snap.Decisions)
	}
	for i, d := range snap.Decisions {
		if d.Strategy != wantLog[i] || d.Cost != wantCosts[i] {
			t.Fatalf("decision %d = %+v, want %s/%d", i, d, wantLog[i], wantCosts[i])
		}
		if d.Failed {
			t.Fatalf("decision %d marked failed: %+v", i, d)
		}
	}
	if !snap.Decisions[2].Verified || snap.Decisions[0].Verified {
		t.Fatalf("verification verdicts wrong in log: %+v", snap.Decisions)
	}
}

// TestFleetRetiresWhenCheapestStrategyExceedsBudget: a device is retired the
// moment no applicable strategy fits the remaining budget — with budget still
// unspent — instead of bleeding the rest one doomed episode at a time.
func TestFleetRetiresWhenCheapestStrategyExceedsBudget(t *testing.T) {
	devs, asDev := ladderFleet(2)
	devs[0].damageFrom = 2
	devs[0].stuck = 1 // remap (cost 2) and retrain (cost 4) apply; scrub never
	devs[0].fixedBy = ""
	cfg := testConfig()
	cfg.RepairBudget = 3
	sup, err := New(asDev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	retired := RoundResult{}
	for round := 1; round <= 10 && !retired.Retired; round++ {
		for _, d := range devs {
			d.SetRound(round)
		}
		results, err := sup.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Retired {
			retired = results[0]
		}
	}
	if !retired.Retired {
		t.Fatal("device with unaffordable repairs never retired")
	}
	// remap (cost 2) ran once and failed to verify; the cheapest applicable
	// rung (remap again, cost 2) exceeds the remaining 1 → retire with budget
	// still positive
	if retired.BudgetLeft != 1 {
		t.Fatalf("retired with budget %d, want 1 (early retirement, not bleed-to-zero)", retired.BudgetLeft)
	}
	if got := devs[0].applied; len(got) != 1 || got[0] != "remap" {
		t.Fatalf("applied %v, want exactly one remap", got)
	}
	// the healthy peer keeps serving
	if serving := sup.Serving(); len(serving) != 1 || serving[0] != devs[1].id {
		t.Fatalf("healthy peer not serving alone: %v", serving)
	}
}

// TestDecisionLogSurvivesCrashResume: journaled strategy decisions must
// replay exactly — the crash/restart parity the lifetime soak gates on.
func TestDecisionLogSurvivesCrashResume(t *testing.T) {
	devs, asDev := ladderFleet(1)
	devs[0].damageFrom = 2
	devs[0].drifted = 1
	devs[0].fixedBy = "retrain"
	path := filepath.Join(t.TempDir(), "ladder.wal")
	st, _, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.RepairBudget = 10
	sup, err := New(asDev, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	sawRepair := false
	for round := 1; round <= 8; round++ {
		devs[0].SetRound(round)
		results, err := sup.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sawRepair = sawRepair || results[0].Repaired
	}
	if !sawRepair {
		t.Fatal("scenario never repaired — decision log empty, test proves nothing")
	}
	before := sup.Snapshot()
	if len(before[devs[0].id].Decisions) == 0 {
		t.Fatal("no decisions journaled")
	}

	// crash: close the journal, replay it into a fresh supervisor over the
	// surviving hardware
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	resumed, err := Resume(asDev, cfg, st2, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Snapshot(), before) {
		t.Fatalf("decision log diverged across crash/resume:\n%+v\nvs\n%+v", resumed.Snapshot(), before)
	}
}

func TestDecisionLogCapped(t *testing.T) {
	ds := &deviceState{}
	for i := 0; i < maxDecisionLog+36; i++ {
		ds.logDecision(RepairDecision{Round: i, Strategy: "scrub", Cost: 1})
	}
	if len(ds.decisions) != maxDecisionLog {
		t.Fatalf("decision log length %d, want cap %d", len(ds.decisions), maxDecisionLog)
	}
	if ds.decisions[0].Round != 36 {
		t.Fatalf("cap did not keep the newest entries: oldest round %d, want 36", ds.decisions[0].Round)
	}
	// an over-long journaled log must be rejected by snapshot validation
	snap := DeviceSnapshot{Decisions: make([]RepairDecision, maxDecisionLog+1)}
	for i := range snap.Decisions {
		snap.Decisions[i] = RepairDecision{Strategy: "scrub"}
	}
	if err := snap.Validate(); err == nil {
		t.Fatal("oversized decision log validated")
	}
}
