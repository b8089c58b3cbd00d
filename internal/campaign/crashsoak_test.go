package campaign

import (
	"strings"
	"testing"
)

// smokeCrashSoakConfig shrinks the matrix for unit-test latency while still
// covering every fault column and a compaction-round crash point.
func smokeCrashSoakConfig() CrashSoakConfig {
	cfg := DefaultCrashSoakConfig()
	cfg.Devices = 2
	cfg.Rounds = 8
	cfg.CrashPoints = []int{4, 6}
	return cfg
}

// TestRunCrashSoakMatrix is the durable-state acceptance gate: every
// (crash point × disk fault) cell must recover bit-identically, surface its
// fault, lose zero acknowledged writes and keep the WAL bounded.
func TestRunCrashSoakMatrix(t *testing.T) {
	cfg := smokeCrashSoakConfig()
	res, err := RunCrashSoak(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.CrashPoints) * len(AllFaults()); len(res.Cells) != want {
		t.Fatalf("matrix ran %d cells, want %d", len(res.Cells), want)
	}
	for _, f := range res.Failures() {
		t.Error(f)
	}
	for _, c := range res.Cells {
		if !c.FaultSurfaced {
			t.Errorf("[round=%d fault=%s] fault never surfaced", c.Round, c.Fault)
		}
		if !c.StateMatch {
			t.Errorf("[round=%d fault=%s] recovered state diverged", c.Round, c.Fault)
		}
		if isFailStop(c.Fault) != c.Degraded {
			t.Errorf("[round=%d fault=%s] degraded=%v, want %v", c.Round, c.Fault, c.Degraded, isFailStop(c.Fault))
		}
		if c.RecoveredRound < c.LastAcked {
			t.Errorf("[round=%d fault=%s] acked round %d lost (recovered %d)", c.Round, c.Fault, c.LastAcked, c.RecoveredRound)
		}
	}
	if res.MaxWALBytes > res.WALBound {
		t.Fatalf("WAL peaked at %d bytes, bound %d", res.MaxWALBytes, res.WALBound)
	}
	if res.MaxWALBytes == 0 {
		t.Fatal("WAL telemetry never recorded a size")
	}
}

// TestCrashSoakRejectsBadConfig pins the config guards.
func TestCrashSoakRejectsBadConfig(t *testing.T) {
	cfg := smokeCrashSoakConfig()
	cfg.Fleet.CompactEvery = 0
	if _, err := RunCrashSoak(1, cfg); err == nil || !strings.Contains(err.Error(), "CompactEvery") {
		t.Fatalf("CompactEvery=0 accepted: %v", err)
	}
	cfg = smokeCrashSoakConfig()
	cfg.CrashPoints = []int{1} // before the first compaction
	if _, err := RunCrashSoak(1, cfg); err == nil {
		t.Fatal("crash point before the first compaction accepted")
	}
	cfg = smokeCrashSoakConfig()
	cfg.CrashPoints = []int{cfg.Rounds + 1}
	if _, err := RunCrashSoak(1, cfg); err == nil {
		t.Fatal("crash point past the campaign accepted")
	}
	cfg = smokeCrashSoakConfig()
	cfg.CrashPoints = nil // zero cells: the matrix would pass having run nothing
	if _, err := RunCrashSoak(1, cfg); err == nil {
		t.Fatal("empty crash-point list accepted")
	}
}
