package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"reramtest/internal/fleet"
	"reramtest/internal/hwcost"
)

// escalationFixture pins what the default (fixed-escalation) plant does
// under supervision. It was generated at the last commit that still had a
// dedicated reprogram → retrain → replace action loop in internal/health;
// the strategy ladder walking repair.Escalation's rungs must reproduce it
// round for round. Regenerate only when the plant or the timeline generator
// changes on purpose:
//
//	CAMPAIGN_REGEN_FIXTURES=1 go test ./internal/campaign -run FixedEscalationFixture
const escalationFixture = "testdata/fixed_escalation.json"

type escalationTrace struct {
	// Runs holds campaign.Run's per-round records, keyed by seed.
	Runs map[string][]RoundRecord
	// FleetSeed and Fleet hold RunFleet's final per-device repair ledger.
	FleetSeed int64
	Fleet     map[string]escalationDevice
}

type escalationDevice struct {
	Budget    int
	Retired   bool
	Decisions []fleet.RepairDecision
}

func traceFixedEscalation(t *testing.T) escalationTrace {
	t.Helper()
	tr := escalationTrace{Runs: map[string][]RoundRecord{}, FleetSeed: 7003, Fleet: map[string]escalationDevice{}}
	for _, seed := range []int64{1000, 1003} {
		res, err := Run(seed, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr.Runs[strconv.FormatInt(seed, 10)] = res.Rounds
	}
	// budget 5 makes seed 7003 cover the whole ledger: verified one-rung
	// episodes, a three-rung escalation stopped by MaxRepairAttempts, and a
	// device retired the round its last unit is spent
	fcfg := DefaultFleetSoakConfig()
	fcfg.Fleet.RepairBudget = 5
	res, err := RunFleet(tr.FleetSeed, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, snap := range res.FinalSnapshot {
		tr.Fleet[id] = escalationDevice{Budget: snap.Budget, Retired: snap.Retired, Decisions: snap.Decisions}
	}
	return tr
}

func TestFixedEscalationFixture(t *testing.T) {
	got, err := json.MarshalIndent(traceFixedEscalation(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("CAMPAIGN_REGEN_FIXTURES") != "" {
		if err := os.WriteFile(escalationFixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", escalationFixture)
		return
	}
	want, err := os.ReadFile(escalationFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("supervised default plant diverged from the pinned fixed-escalation trace\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// ledgerFixture pins the per-class hardware ledgers the supervisor journals:
// every device's final Snapshot().Cost after one fleet-soak seed and after
// both ladder arms (uninterrupted and crash-replayed) of one lifetime-soak
// seed. It is compared to the committed bytes, never to a live reference, so
// a change to who attributes a charge cannot move a ledger line unnoticed.
// Regenerate only when the plant, the timelines or the cost model change on
// purpose:
//
//	CAMPAIGN_REGEN_FIXTURES=1 go test ./internal/campaign -run LedgerFixture
const ledgerFixture = "testdata/ledgers.json"

func costsOf(res FleetResult) map[string]hwcost.CostBreakdown {
	out := make(map[string]hwcost.CostBreakdown, len(res.FinalSnapshot))
	for id, snap := range res.FinalSnapshot {
		out[id] = snap.Cost
	}
	return out
}

func TestLedgerFixture(t *testing.T) {
	fleetRes, err := RunFleet(1000, DefaultFleetSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	life, err := RunLifetimeSoak(5, DefaultLifetimeSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(map[string]map[string]hwcost.CostBreakdown{
		"fleet-soak seed 1000":              costsOf(fleetRes),
		"lifetime-soak seed 5 ladder":       costsOf(life.Parity.Uninterrupted),
		"lifetime-soak seed 5 ladder crash": costsOf(life.Parity.Crashed),
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("CAMPAIGN_REGEN_FIXTURES") != "" {
		if err := os.WriteFile(ledgerFixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", ledgerFixture)
		return
	}
	want, err := os.ReadFile(ledgerFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("supervised ledgers diverged from the pinned fixture\ngot:\n%s\nwant:\n%s", got, want)
	}
}
