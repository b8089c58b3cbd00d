package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"reramtest/internal/hwcost"
	"reramtest/internal/journal"
)

// precostFixture is the committed WAL written by the pre-cost-accounting
// schema: structurally a journal produced today, with every "cost" key
// stripped from the device records. Regenerate with
//
//	FLEET_REGEN_FIXTURES=1 go test ./internal/fleet -run RegenPrecostFixture
const precostFixture = "testdata/precost.wal"

// meteredFake wraps a scripted device with a live cost counter, making it
// fleet.CostMetered so the supervisor journals and restores its spend.
type meteredFake struct {
	*fakeDevice
	ctr *hwcost.Counter
}

func (d meteredFake) CostCounter() *hwcost.Counter { return d.ctr }

func asMetered(devs []*fakeDevice) ([]Device, []*hwcost.Counter) {
	out := make([]Device, len(devs))
	ctrs := make([]*hwcost.Counter, len(devs))
	for i, d := range devs {
		ctrs[i] = hwcost.NewCounter()
		out[i] = meteredFake{fakeDevice: d, ctr: ctrs[i]}
	}
	return out, ctrs
}

// TestRegenPrecostFixture rewrites the committed fixture: run a real
// supervised fleet, then strip the "cost" key from every journaled device —
// producing byte-wise what a pre-cost supervisor would have written.
func TestRegenPrecostFixture(t *testing.T) {
	if os.Getenv("FLEET_REGEN_FIXTURES") == "" {
		t.Skip("set FLEET_REGEN_FIXTURES=1 to rewrite testdata/precost.wal")
	}
	dir := t.TempDir()
	st, _, err := journal.OpenStore(filepath.Join(dir, "live.wal"), journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	devs := testFleet(2)
	s, err := New(asDevices(devs), testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		advance(devs, round)
		if _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, _, err := journal.Replay(filepath.Join(dir, "live.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, p := range payloads {
		var rec map[string]any
		// UseNumber: the fingerprint is a full-width uint64 and must not
		// round-trip through float64
		dec := json.NewDecoder(bytes.NewReader(p))
		dec.UseNumber()
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if devices, ok := rec["devices"].([]any); ok {
			for _, d := range devices {
				delete(d.(map[string]any), "cost")
			}
		}
		stripped, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(journal.Encode(stripped))
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(precostFixture, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeJournalWithoutCostFields is the schema-evolution gate: a WAL
// written before cost accounting existed must Resume cleanly, backfilling a
// zero cost breakdown — no error, no invented spend, and the restored
// counter actually reset to the journaled (zero) truth.
func TestResumeJournalWithoutCostFields(t *testing.T) {
	raw, err := os.ReadFile(precostFixture)
	if err != nil {
		t.Fatalf("committed fixture missing: %v", err)
	}
	payloads, consumed := journal.DecodeAll(raw)
	if consumed != len(raw) || len(payloads) < 2 {
		t.Fatalf("fixture damaged: %d/%d bytes, %d records", consumed, len(raw), len(payloads))
	}
	for i, p := range payloads {
		if bytes.Contains(p, []byte(`"cost"`)) {
			t.Fatalf("fixture record %d carries a cost key — no longer old-format", i)
		}
	}

	snaps, round, err := ReplayRecovered(journal.Recovered{Records: payloads})
	if err != nil {
		t.Fatalf("old-format WAL failed replay: %v", err)
	}
	if round != 3 || len(snaps) != 2 {
		t.Fatalf("replayed round %d with %d devices, want 3 with 2", round, len(snaps))
	}
	for id, snap := range snaps {
		if !snap.Cost.Total().IsZero() {
			t.Fatalf("device %s: old WAL backfilled non-zero cost %+v", id, snap.Cost)
		}
	}

	// resume with metered devices whose counters are deliberately dirty: the
	// journaled truth (zero) must win over in-memory residue
	devs := testFleet(2)
	metered, ctrs := asMetered(devs)
	for _, c := range ctrs {
		c.Charge(hwcost.Cost{ComputeCycles: 999, EnergyFJ: 999})
	}
	path := filepath.Join(t.TempDir(), "fleet.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := Resume(metered, testConfig(), st, rec)
	if err != nil {
		t.Fatalf("Resume over old-format WAL: %v", err)
	}
	for _, c := range ctrs {
		if !c.Snapshot().Total().IsZero() {
			t.Fatalf("resume did not restore the journaled zero spend: %+v", c.Snapshot())
		}
	}

	// and the resumed supervisor journals the NEW schema from here on: the
	// next tick's record carries cost for every device
	advance(devs, 4)
	if _, err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	for id, snap := range s.Snapshot() {
		if snap.Round != 4 {
			t.Fatalf("device %s did not advance past the resumed round: %+v", id, snap)
		}
	}
}
