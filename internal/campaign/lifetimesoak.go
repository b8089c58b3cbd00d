// Lifetime soak: the acceptance gate for the pluggable repair-strategy
// ladder. One seeded fleet campaign is run three ways —
//
//   - ladder arm: scrub → remap → retrain, costs charged per strategy;
//   - retrain-only control: the same campaign where every repair is the
//     cloud-edge retrain, charged in the same cost units;
//   - crashed ladder arm: the ladder campaign with supervisor crashes and
//     torn journal tails, replayed from the write-ahead journal.
//
// and three properties are gated:
//
//  1. economics — the ladder must not spend more lifetime budget than
//     retrain-only, must not retire more devices, and must hold an
//     equal-or-better fidelity floor (within RecoveryBand);
//  2. typed errors — zero strategy applications across all arms may return
//     an error outside the *repair.Error / *repair.DiagnosisError contract;
//  3. decision parity — the crashed ladder arm must replay to the exact
//     confirmed-status history, durable state AND journaled strategy
//     decisions of the uninterrupted one, and must actually have crashed.
package campaign

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// DefaultLifetimeSoakConfig returns the gate-scale soak: the default fleet
// campaign with drop-connect-hardened commissioning, spare rows provisioned,
// and a budget tight enough that repair economics actually bite.
func DefaultLifetimeSoakConfig() FleetSoakConfig {
	fcfg := DefaultFleetSoakConfig()
	fcfg.Plant.Harden = true
	fcfg.Plant.SpareRows = 2
	// A 16-pattern monitor is too coarse an oracle for the economics gates:
	// it verifies repairs that leave visible probe-fidelity damage, letting a
	// cheap rung "succeed" where the control's retrain actually restores the
	// array. 48 patterns keeps verification honest without slowing the soak
	// beyond gate scale.
	fcfg.Plant.Patterns = 48
	fcfg.Fleet.RepairBudget = 12
	return fcfg
}

// LifetimeArm is one arm's economic summary.
type LifetimeArm struct {
	Result        FleetResult
	CostSpent     int // lifetime budget units charged fleet-wide
	Retired       int // devices retired to hardware service
	Serving       int // devices in service at the end (see inService)
	UntypedErrors int
}

func summarizeArm(res FleetResult) LifetimeArm {
	arm := LifetimeArm{
		Result:        res,
		CostSpent:     res.RepairCostSpent,
		Retired:       res.Retired,
		UntypedErrors: res.UntypedRepairErrors,
	}
	for _, snap := range res.FinalSnapshot {
		if inService(snap) {
			arm.Serving++
		}
	}
	return arm
}

// LifetimeSoakResult is the three-arm comparison and its gate verdicts.
type LifetimeSoakResult struct {
	Seed                int64
	Ladder, RetrainOnly LifetimeArm
	// Crashed is the ladder arm re-run with the configured crash schedule.
	Crashed FleetResult
	Parity  FleetPairResult

	// DecisionDivergences counts devices whose journaled strategy-decision
	// logs differ between the crashed and uninterrupted ladder arms.
	DecisionDivergences int
	// CommonFloorLadder/CommonFloorControl are the fidelity floors over the
	// devices serving in BOTH arms — the like-for-like comparison the
	// fidelity gate uses.
	CommonFloorLadder, CommonFloorControl float64

	// Gate verdicts.
	SpendOK    bool // ladder spend ≤ retrain-only spend
	RetireOK   bool // ladder retirements ≤ retrain-only retirements
	FidelityOK bool // ladder floor ≥ control floor − RecoveryBand
	TypedOK    bool // zero untyped strategy errors across all arms
	ParityOK   bool // crash/restart replay is byte-equivalent, decisions included
}

// Failures lists every violated gate (empty = campaign passed); String
// prints the numbers behind each. A parity arm that never crashed proved
// nothing about decision durability, so it fails too.
func (r LifetimeSoakResult) Failures() []string {
	var fails []string
	for _, g := range []struct {
		ok   bool
		fail string
	}{
		{r.SpendOK, "spend: the ladder spent more budget than retrain-only"},
		{r.RetireOK, "retire: the ladder retired more devices than retrain-only"},
		{r.FidelityOK, fmt.Sprintf("fidelity: the ladder's floor trails retrain-only's by more than the recovery band (%g)", RecoveryBand)},
		{r.TypedOK, "typed: strategy errors outside the typed contract"},
		{r.ParityOK, "parity: the crash-replayed ladder arm diverged from the uninterrupted one"},
		{r.Crashed.Replays > 0, "nothing exercised (no crash/replay cycles ran)"},
	} {
		if !g.ok {
			fails = append(fails, g.fail)
		}
	}
	return fails
}

// String renders the verdict table.
func (r LifetimeSoakResult) String() string {
	var b strings.Builder
	mark := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Fprintf(&b, "lifetime soak seed=%d\n", r.Seed)
	fmt.Fprintf(&b, "  spend    %s  ladder=%d retrain-only=%d\n", mark(r.SpendOK), r.Ladder.CostSpent, r.RetrainOnly.CostSpent)
	fmt.Fprintf(&b, "  retire   %s  ladder=%d retrain-only=%d\n", mark(r.RetireOK), r.Ladder.Retired, r.RetrainOnly.Retired)
	fmt.Fprintf(&b, "  fidelity %s  common floor ladder=%.4f retrain-only=%.4f (serving %d vs %d)\n", mark(r.FidelityOK),
		r.CommonFloorLadder, r.CommonFloorControl, r.Ladder.Serving, r.RetrainOnly.Serving)
	fmt.Fprintf(&b, "  typed    %s  untyped errors=%d\n", mark(r.TypedOK),
		r.Ladder.UntypedErrors+r.RetrainOnly.UntypedErrors+r.Crashed.UntypedRepairErrors)
	fmt.Fprintf(&b, "  parity   %s  status=%d state=%d decisions=%d replays=%d truncated=%dB\n", mark(r.ParityOK),
		r.Parity.StatusDivergences, r.Parity.FinalStateDivergences, r.DecisionDivergences, r.Crashed.Replays, r.Crashed.TruncatedBytes)
	fmt.Fprintf(&b, "  verdict  %s\n", mark(len(r.Failures()) == 0))
	return b.String()
}

// RunLifetimeSoak executes the three-arm soak for one seed. Deterministic:
// the same seed and config always produce the same result.
//
// cfg is the shared campaign script: devices, rounds, event timelines and a
// crash schedule applied to the parity arm only. Plant.Repair is set per arm.
func RunLifetimeSoak(seed int64, cfg FleetSoakConfig) (LifetimeSoakResult, error) {
	ladderCfg := cfg
	ladderCfg.Plant.Repair = Ladder

	controlCfg := cfg
	controlCfg.Plant.Repair = RetrainOnly
	controlCfg.CrashAfter = nil
	controlCfg.CorruptTail = false

	res := LifetimeSoakResult{Seed: seed}

	// arms 1 + 3: the ladder campaign, uninterrupted and crash-replayed
	pair, err := RunFleetPair(seed, ladderCfg)
	if err != nil {
		return res, fmt.Errorf("campaign: lifetime soak ladder arm: %w", err)
	}
	res.Parity = pair
	res.Ladder = summarizeArm(pair.Uninterrupted)
	res.Crashed = pair.Crashed

	// arm 2: the retrain-only control, same seed, same timelines
	control, err := RunFleet(seed, controlCfg)
	if err != nil {
		return res, fmt.Errorf("campaign: lifetime soak control arm: %w", err)
	}
	res.RetrainOnly = summarizeArm(control)

	// the fidelity floors are compared like-for-like, over devices serving
	// in BOTH arms: a device only the ladder kept in service is extra
	// capacity (credited by the retire gate), not a floor penalty, and a
	// device only the control kept is symmetric
	res.CommonFloorLadder, res.CommonFloorControl = 1, 1
	common := 0
	for _, id := range pair.Uninterrupted.Devices {
		if !inService(pair.Uninterrupted.FinalSnapshot[id]) || !inService(control.FinalSnapshot[id]) {
			continue
		}
		common++
		res.CommonFloorLadder = math.Min(res.CommonFloorLadder, pair.Uninterrupted.FinalFidelity[id])
		res.CommonFloorControl = math.Min(res.CommonFloorControl, control.FinalFidelity[id])
	}
	if common == 0 {
		res.CommonFloorLadder, res.CommonFloorControl = 0, 0
	}

	// decision parity, called out separately from the whole-state DeepEqual
	// so a divergence names the journaled artifact the gate is about
	for _, id := range pair.Uninterrupted.Devices {
		a := pair.Uninterrupted.FinalSnapshot[id].Decisions
		b := pair.Crashed.FinalSnapshot[id].Decisions
		if !reflect.DeepEqual(a, b) {
			res.DecisionDivergences++
		}
	}

	res.SpendOK = res.Ladder.CostSpent <= res.RetrainOnly.CostSpent
	res.RetireOK = res.Ladder.Retired <= res.RetrainOnly.Retired
	res.FidelityOK = res.CommonFloorLadder >= res.CommonFloorControl-RecoveryBand
	res.TypedOK = res.Ladder.UntypedErrors == 0 && res.RetrainOnly.UntypedErrors == 0 &&
		res.Crashed.UntypedRepairErrors == 0
	res.ParityOK = res.Parity.StatusDivergences == 0 && res.Parity.FinalStateDivergences == 0 &&
		res.Parity.BudgetDivergences == 0 && res.DecisionDivergences == 0 &&
		res.Crashed.StateDivergences == 0 && res.Crashed.Misroutes == 0
	return res, nil
}
