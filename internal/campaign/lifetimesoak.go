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

// LifetimeSoakResult is one seed's three arms; Failures and String compute
// every gate from them.
type LifetimeSoakResult struct {
	Seed int64
	// Ladder is the ladder campaign run uninterrupted (arm 1) and
	// crash-replayed from its journal (arm 3).
	Ladder FleetPairResult
	// RetrainOnly is the control arm (arm 2).
	RetrainOnly FleetResult
}

// lifetimeGate is one gate: whether it held, the failure it reports, and the
// line String prints for it (no line when name is empty).
type lifetimeGate struct {
	name         string
	ok           bool
	fail, detail string
}

// gates computes every gate from the arms. A parity arm that never crashed
// proved nothing about decision durability, so it fails too.
func (r LifetimeSoakResult) gates() []lifetimeGate {
	ladder, crashed, control := r.Ladder.Uninterrupted, r.Ladder.Crashed, r.RetrainOnly
	floorL, floorC := commonFloors(ladder, control)
	status, final, budget := r.Ladder.divergences()
	// decision parity, called out separately from the whole-state comparison
	// so a divergence names the journaled artifact the gate is about
	decisions := 0
	for _, id := range ladder.Devices {
		if !reflect.DeepEqual(ladder.FinalSnapshot[id].Decisions, crashed.FinalSnapshot[id].Decisions) {
			decisions++
		}
	}
	untyped := ladder.UntypedRepairErrors + control.UntypedRepairErrors + crashed.UntypedRepairErrors
	return []lifetimeGate{
		{"spend", ladder.RepairCostSpent <= control.RepairCostSpent,
			"spend: the ladder spent more budget than retrain-only",
			fmt.Sprintf("ladder=%d retrain-only=%d", ladder.RepairCostSpent, control.RepairCostSpent)},
		{"retire", ladder.Retired <= control.Retired,
			"retire: the ladder retired more devices than retrain-only",
			fmt.Sprintf("ladder=%d retrain-only=%d", ladder.Retired, control.Retired)},
		{"fidelity", floorL >= floorC-RecoveryBand,
			fmt.Sprintf("fidelity: the ladder's floor trails retrain-only's by more than the recovery band (%g)", RecoveryBand),
			fmt.Sprintf("common floor ladder=%.4f retrain-only=%.4f (serving %d vs %d)", floorL, floorC, serving(ladder), serving(control))},
		{"typed", untyped == 0, "typed: strategy errors outside the typed contract",
			fmt.Sprintf("untyped errors=%d", untyped)},
		{"parity", status == 0 && final == 0 && budget == 0 && decisions == 0 &&
			crashed.StateDivergences == 0 && crashed.Misroutes == 0,
			"parity: the crash-replayed ladder arm diverged from the uninterrupted one",
			fmt.Sprintf("status=%d state=%d decisions=%d replays=%d truncated=%dB",
				status, final, decisions, crashed.Replays, crashed.TruncatedBytes)},
		{"", crashed.Replays > 0, "nothing exercised (no crash/replay cycles ran)", ""},
	}
}

// commonFloors returns the ladder's and the control's fidelity floors over
// the devices serving in BOTH arms (0, 0 when there are none): a device only
// the ladder kept in service is extra capacity (credited by the retire
// gate), not a floor penalty, and a device only the control kept is
// symmetric.
func commonFloors(ladder, control FleetResult) (float64, float64) {
	floorL, floorC, common := 1.0, 1.0, 0
	for _, id := range ladder.Devices {
		if inService(ladder.FinalSnapshot[id]) && inService(control.FinalSnapshot[id]) {
			common++
			floorL = math.Min(floorL, ladder.FinalFidelity[id])
			floorC = math.Min(floorC, control.FinalFidelity[id])
		}
	}
	if common == 0 {
		return 0, 0
	}
	return floorL, floorC
}

// serving counts the devices in service at the end of a campaign.
func serving(res FleetResult) int {
	n := 0
	for _, snap := range res.FinalSnapshot {
		if inService(snap) {
			n++
		}
	}
	return n
}

// Failures lists every violated gate (empty = campaign passed).
func (r LifetimeSoakResult) Failures() []string {
	var fails []string
	for _, g := range r.gates() {
		if !g.ok {
			fails = append(fails, g.fail)
		}
	}
	return fails
}

// String renders the verdict table: one line per gate with the numbers
// behind it, then the seed's verdict.
func (r LifetimeSoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lifetime soak seed=%d\n", r.Seed)
	pass := true
	for _, g := range r.gates() {
		pass = pass && g.ok
		if g.name != "" {
			fmt.Fprintf(&b, "  %-8s %s  %s\n", g.name, mark(g.ok), g.detail)
		}
	}
	fmt.Fprintf(&b, "  verdict  %s", mark(pass))
	return b.String()
}

// mark renders a verdict.
func mark(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
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
	var err error
	// arms 1 + 3: the ladder campaign, uninterrupted and crash-replayed
	if res.Ladder, err = RunFleetPair(seed, ladderCfg); err != nil {
		return res, fmt.Errorf("campaign: lifetime soak ladder arm: %w", err)
	}
	// arm 2: the retrain-only control, same seed, same timelines
	if res.RetrainOnly, err = RunFleet(seed, controlCfg); err != nil {
		return res, fmt.Errorf("campaign: lifetime soak control arm: %w", err)
	}
	return res, nil
}
