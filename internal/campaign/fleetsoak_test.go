package campaign

import (
	"reflect"
	"testing"
)

// smallFleetConfig shrinks the default fleet soak to test scale while
// keeping every gated path exercised: two crashes with torn journal tails,
// the deterministic sensor outage (breaker trip + probe recovery), and a
// correlated shower.
func smallFleetConfig() FleetSoakConfig {
	cfg := DefaultFleetSoakConfig()
	cfg.Devices = 3
	cfg.Rounds = 32
	cfg.CrashAfter = []int{9, 21}
	cfg.ShowerRound = 13
	return cfg
}

// TestFleetSoakPairGate is the PR's acceptance property at test scale: the
// same seeded fleet campaign run crashed and uninterrupted must agree on
// every confirmed status, every repair budget and every device's final
// durable state, with zero requests misrouted and corrupt journal tails
// truncated.
func TestFleetSoakPairGate(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak gate is seconds-scale")
	}
	cfg := smallFleetConfig()
	var pairs []FleetPairResult
	for seed := int64(1); seed <= 2; seed++ {
		pair, err := RunFleetPair(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pairs = append(pairs, pair)
	}
	s := ScoreFleet(pairs)
	t.Logf("\n%s", s)
	if fails := s.Failures(); len(fails) != 0 {
		t.Fatal(fails)
	}
	if want := 2 * len(cfg.CrashAfter); s.Replays != want {
		t.Errorf("replays = %d, want %d", s.Replays, want)
	}
	if s.TornCrashes != s.Replays {
		t.Errorf("torn crashes = %d, want every crash torn (%d)", s.TornCrashes, s.Replays)
	}
	if s.ProbeRecoveries == 0 {
		t.Error("deterministic sensor outage never produced a probe recovery")
	}
}

// TestRunFleetValidation rejects degenerate fleet shapes.
func TestRunFleetValidation(t *testing.T) {
	cfg := smallFleetConfig()
	cfg.Devices = 0
	if _, err := RunFleet(1, cfg); err == nil {
		t.Error("zero devices accepted")
	}
	cfg = smallFleetConfig()
	cfg.Rounds = 0
	if _, err := RunFleet(1, cfg); err == nil {
		t.Error("zero rounds accepted")
	}
}

// TestRunManyMatchesSerial pins the satellite requirement that the
// parallelized RunMany is bit-identical to a serial loop: same seeds, same
// traces, seed order preserved.
func TestRunManyMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 18
	const base, n = 100, 4
	par, err := RunMany(base, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != n {
		t.Fatalf("RunMany returned %d results, want %d", len(par), n)
	}
	for i := 0; i < n; i++ {
		serial, err := Run(base+int64(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par[i], serial) {
			t.Errorf("seed %d: parallel trace diverges from serial run", base+int64(i))
		}
	}
}
