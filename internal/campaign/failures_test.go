package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reramtest/internal/fleet"
	"reramtest/internal/hwcost"
	"reramtest/internal/loadgen"
	"reramtest/internal/monitor"
	"reramtest/internal/netserve"
	"reramtest/internal/serve"
)

// gateCase is one row of a gate table: a result that breaks exactly one
// gate, and a fragment of the one failure it must report.
type gateCase[R interface{ Failures() []string }] struct {
	name string
	res  R
	want string
}

// checkGates runs a soak's gate table: the passing result reports nothing,
// and every row reports exactly its own gate.
func checkGates[R interface{ Failures() []string }](t *testing.T, pass R, cases []gateCase[R]) {
	t.Helper()
	if fails := pass.Failures(); len(fails) != 0 {
		t.Fatalf("the passing result fails: %q", fails)
	}
	for _, tc := range cases {
		fails := tc.res.Failures()
		if len(fails) != 1 || !strings.Contains(fails[0], tc.want) {
			t.Errorf("%s: Failures() = %q, want one failure naming %q", tc.name, fails, tc.want)
		}
	}
}

func TestScorecardGates(t *testing.T) {
	pass := Scorecard{Campaigns: 1, Persistent: 1, TransientWindows: 1, RawFlapWindows: 1}
	with := func(f func(*Scorecard)) Scorecard { s := pass; f(&s); return s }
	checkGates(t, pass, []gateCase[Scorecard]{
		{"vacuous", with(func(s *Scorecard) { s.Persistent = 0 }), "nothing exercised"},
		{"missed critical", with(func(s *Scorecard) { s.MissedCritical = 1 }), "Critical-severity events missed"},
		{"missed persistent", with(func(s *Scorecard) { s.MissedPersistent = 1 }), "persistent events never detected"},
		{"flaps", with(func(s *Scorecard) { s.TransientFlaps = 1 }), "flaps on transient glitches"},
		{"no raw flap", with(func(s *Scorecard) { s.RawFlapWindows = 0 }), "flap suppression untested"},
		{"false alarm", with(func(s *Scorecard) { s.FalseAlarmFlips = 1 }), "false-alarm escalations"},
		{"recovery", with(func(s *Scorecard) { s.Repairable, s.Recovered = 5, 3 }), "recovery rate 60%"},
	})
}

func TestFleetScorecardGates(t *testing.T) {
	pass := FleetScorecard{Campaigns: 1, Replays: 1, Routed: 1, BreakerTrips: 1, Probes: 1}
	with := func(f func(*FleetScorecard)) FleetScorecard { s := pass; f(&s); return s }
	checkGates(t, pass, []gateCase[FleetScorecard]{
		{"vacuous", with(func(s *FleetScorecard) { s.Replays = 0 }), "nothing exercised"},
		{"breaker", with(func(s *FleetScorecard) { s.Probes = 0 }), "breaker path unexercised"},
		{"torn tail", with(func(s *FleetScorecard) { s.TornCrashes = 1 }), "no journal bytes truncated"},
		{"state", with(func(s *FleetScorecard) { s.StateDivergences = 1 }), "different supervisor state"},
		{"status", with(func(s *FleetScorecard) { s.StatusDivergences = 1 }), "confirmed statuses diverged"},
		{"budget", with(func(s *FleetScorecard) { s.BudgetDivergences = 1 }), "repair budgets diverged"},
		{"final", with(func(s *FleetScorecard) { s.FinalDivergences = 1 }), "different durable state"},
		{"misroute", with(func(s *FleetScorecard) { s.Misroutes = 1 }), "routed to quarantined"},
	})
}

func TestNetSoakGates(t *testing.T) {
	spend := hwcost.Cost{ComputeCycles: 4, EnergyFJ: 9}
	ms := func(d time.Duration) []time.Duration { return []time.Duration{d * time.Millisecond} }
	pass := NetSoakResult{
		// the p99 bound is max(4 × 2 ms, 5 ms) + 1 ms of slack, and the
		// chaos p99 sits on it
		Baseline: loadgen.Report{Latencies: ms(2)},
		Chaos:    loadgen.Report{OK: 1, Cost: spend, Latencies: ms(9)},
		Slack:    time.Millisecond,
		// every term of both accounting identities is non-zero, so a term
		// left out of either sum shows
		Stats: netserve.Stats{Received: 11, Invalid: 1, QuotaRejected: 2, ClosedRejected: 3, Admitted: 5,
			Completed: 1, Overloaded: 1, Deadlines: 1, Unavailable: 1, Faulted: 1, Drains: 1},
		Shards:      []netserve.ShardStatus{{Name: "shard-0", Stats: serve.Stats{Admitted: 2, Served: 2}}},
		Cost:        netserve.CostStats{Fleet: spend, Tenants: map[string]hwcost.Cost{"t": spend}, Shards: map[string]hwcost.Cost{"shard-0": spend}},
		PostDrainOK: 1,
	}
	with := func(f func(*NetSoakResult)) NetSoakResult { r := pass; f(&r); return r }
	more := hwcost.Cost{ComputeCycles: 5, EnergyFJ: 9}
	checkGates(t, pass, []gateCase[NetSoakResult]{
		{"hung", with(func(r *NetSoakResult) { r.Chaos.Hung = 1 }), "outlived deadline+grace"},
		{"silent drop", with(func(r *NetSoakResult) { r.Stats.Completed = 0 }), "accounting: admitted - terminal = 1"},
		{"shard drop", with(func(r *NetSoakResult) {
			r.Shards = []netserve.ShardStatus{{Name: "shard-0", Stats: serve.Stats{Admitted: 2, Served: 1}}}
		}), "accounting: shard-0 admitted - terminal = 1"},
		{"unclassified", with(func(r *NetSoakResult) { r.Stats.Received = 12 }), "received - classified = 1"},
		{"untyped reply", with(func(r *NetSoakResult) { r.Chaos.Untyped = 1 }), "1 outcome(s) outside the typed kind set"},
		{"internal", with(func(r *NetSoakResult) { r.Stats.Internal = 1 }), "1 outcome(s) outside the typed kind set"},
		{"leak", with(func(r *NetSoakResult) { r.Leaked = 1 }), "goroutine(s) leaked"},
		{"p99", with(func(r *NetSoakResult) { r.Chaos.Latencies = []time.Duration{9*time.Millisecond + 1} }),
			"exceeds bound 9ms (baseline 2ms)"},
		{"nothing served", with(func(r *NetSoakResult) { r.Chaos = loadgen.Report{} }), "completed zero requests"},
		{"no post-drain", with(func(r *NetSoakResult) { r.PostDrainOK = 0 }), "after the shard drain"},
		{"no drain", with(func(r *NetSoakResult) { r.Stats.Drains = 0 }), "no shard drain"},
		{"tenant ledger", with(func(r *NetSoakResult) { r.Cost.Tenants = map[string]hwcost.Cost{"t": more} }), "Σ tenants"},
		{"shard ledger", with(func(r *NetSoakResult) { r.Cost.Shards = map[string]hwcost.Cost{"shard-0": more} }), "Σ shards"},
		{"unmetered", with(func(r *NetSoakResult) {
			r.Cost = netserve.CostStats{}
			r.Chaos.Cost = hwcost.Cost{}
		}), "zero hardware cost"},
		{"client over", with(func(r *NetSoakResult) { r.Chaos.Cost = more }), "exceeds the tier's fleet ledger"},
	})
	if got := with(func(r *NetSoakResult) { r.Leaked = 1 }).String(); !strings.HasPrefix(got, "seed 0: FAIL |") ||
		!strings.HasSuffix(got, "p99 9ms (baseline 2ms, bound 9ms)") {
		t.Errorf("failing report = %q", got)
	}
}

func TestLifetimeSoakGates(t *testing.T) {
	// the ladder ties the control on spend and retirements and trails its
	// fidelity floor on device d by less than the recovery band, so each
	// comparison sits next to its boundary; device e serves only in the
	// ladder arm, so its poor fidelity stays out of the common floors
	arm := func(fidelity, fidelityE float64, retiredE bool) FleetResult {
		return FleetResult{Devices: []string{"d", "e"},
			Confirmed:       [][]monitor.Status{{monitor.Healthy, monitor.Healthy}},
			FinalSnapshot:   map[string]fleet.DeviceSnapshot{"d": {Budget: 4}, "e": {Retired: retiredE}},
			FinalFidelity:   map[string]float64{"d": fidelity, "e": fidelityE},
			RepairCostSpent: 5, Retired: 1}
	}
	ladder := arm(0.95, 0.5, false)
	crashed := ladder
	crashed.Replays = 1
	pass := LifetimeSoakResult{Ladder: FleetPairResult{Uninterrupted: ladder, Crashed: crashed},
		RetrainOnly: arm(0.96, 0.9, true)}
	with := func(f func(*LifetimeSoakResult)) LifetimeSoakResult { r := pass; f(&r); return r }
	snap := func(r *LifetimeSoakResult, s fleet.DeviceSnapshot) {
		r.Ladder.Crashed.FinalSnapshot = map[string]fleet.DeviceSnapshot{"d": s, "e": {}}
	}
	overspent := with(func(r *LifetimeSoakResult) { r.RetrainOnly.RepairCostSpent = 4 })
	checkGates(t, pass, []gateCase[LifetimeSoakResult]{
		{"spend", overspent, "spend:"},
		{"retire", with(func(r *LifetimeSoakResult) { r.RetrainOnly.Retired = 0 }), "retire:"},
		{"fidelity", with(func(r *LifetimeSoakResult) { r.RetrainOnly.FinalFidelity = map[string]float64{"d": 0.98, "e": 0.9} }), "fidelity:"},
		{"typed ladder", with(func(r *LifetimeSoakResult) { r.Ladder.Uninterrupted.UntypedRepairErrors = 1 }), "typed:"},
		{"typed crashed", with(func(r *LifetimeSoakResult) { r.Ladder.Crashed.UntypedRepairErrors = 1 }), "typed:"},
		{"typed control", with(func(r *LifetimeSoakResult) { r.RetrainOnly.UntypedRepairErrors = 1 }), "typed:"},
		{"status", with(func(r *LifetimeSoakResult) {
			r.Ladder.Crashed.Confirmed = [][]monitor.Status{{monitor.Degraded, monitor.Healthy}}
		}), "parity:"},
		{"state", with(func(r *LifetimeSoakResult) { snap(r, fleet.DeviceSnapshot{Budget: 4, Round: 1}) }), "parity:"},
		{"budget", with(func(r *LifetimeSoakResult) { snap(r, fleet.DeviceSnapshot{Budget: 3}) }), "parity:"},
		{"decisions", with(func(r *LifetimeSoakResult) {
			snap(r, fleet.DeviceSnapshot{Budget: 4, Decisions: []fleet.RepairDecision{{Strategy: "scrub"}}})
		}), "parity:"},
		{"replay state", with(func(r *LifetimeSoakResult) { r.Ladder.Crashed.StateDivergences = 1 }), "parity:"},
		{"misroute", with(func(r *LifetimeSoakResult) { r.Ladder.Crashed.Misroutes = 1 }), "parity:"},
		{"no crash", with(func(r *LifetimeSoakResult) { r.Ladder.Crashed.Replays = 0 }), "nothing exercised"},
	})
	for _, tc := range []struct {
		res  LifetimeSoakResult
		want string
	}{
		{pass, "  spend    PASS  ladder=5 retrain-only=5\n"},
		{pass, "  fidelity PASS  common floor ladder=0.9500 retrain-only=0.9600 (serving 2 vs 1)\n"},
		{pass, "  verdict  PASS"},
		{overspent, "  spend    FAIL  ladder=5 retrain-only=4\n"},
		{overspent, "  verdict  FAIL"},
		// no device serves in both arms: there is no common floor to compare
		{with(func(r *LifetimeSoakResult) {
			r.RetrainOnly.FinalSnapshot = map[string]fleet.DeviceSnapshot{"d": {Retired: true}, "e": {Retired: true}}
		}), "  fidelity PASS  common floor ladder=0.0000 retrain-only=0.0000 (serving 2 vs 0)\n"},
	} {
		if got := tc.res.String(); !strings.Contains(got, tc.want) {
			t.Errorf("verdict table %q lacks %q", got, tc.want)
		}
	}
}

func TestCrashSoakGates(t *testing.T) {
	pass := CrashSoakResult{Cells: []CrashCell{{Round: 4, Fault: FaultNone}}}
	checkGates(t, pass, []gateCase[CrashSoakResult]{
		{"cell", CrashSoakResult{Cells: []CrashCell{{Round: 4, Fault: FaultNone}, {Round: 7, Fault: FaultNoSpace, Failures: []string{"lost"}}}},
			"[round=7 fault=enospc] lost"},
	})
}

// TestCrashCellFailureArms feeds one torture cell a baseline it cannot
// match, a crash point with no snapshot to corrupt and a directory it cannot
// create, and checks that each cell reports what went wrong.
func TestCrashCellFailureArms(t *testing.T) {
	cfg := smokeCrashSoakConfig()
	dir := t.TempDir()
	base, err := runCrashBaseline(7, cfg, filepath.Join(dir, "base"))
	if err != nil {
		t.Fatal(err)
	}
	wrong := &crashBaseline{perRound: make([]map[string]fleet.DeviceSnapshot, len(base.perRound))}
	for i := range wrong.perRound {
		wrong.perRound[i] = map[string]fleet.DeviceSnapshot{}
	}
	if err := os.WriteFile(filepath.Join(dir, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		dir    string
		round  int
		fault  string
		base   *crashBaseline
		wanted []string
	}{
		{"recoverable, wrong baseline", "a", 4, FaultNone, wrong,
			[]string{"recovered state diverges from baseline at round 4", "final state diverges"}},
		{"fail-stop, wrong baseline", "b", 4, FaultNoSpace, wrong,
			[]string{"degraded supervision diverged from baseline at round 6", "recovered state diverges"}},
		{"no snapshot to corrupt", "c", 2, FaultCorruptSnapshot, base,
			[]string{"recovery after round 2: no snapshot generation on disk"}},
		{"no directory", "file/x", 4, FaultNone, base, []string{"not a directory"}},
	} {
		cell := runCrashCell(7, cfg, filepath.Join(dir, tc.dir), tc.round, tc.fault, tc.base)
		got := strings.Join(cell.Failures, "\n")
		for _, w := range tc.wanted {
			if !strings.Contains(got, w) {
				t.Errorf("%s: failures %q do not name %q", tc.name, cell.Failures, w)
			}
		}
	}
}
