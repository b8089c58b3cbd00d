package fleet

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"reramtest/internal/journal"
)

// TestNewDegradesOnFullDisk: a store that cannot take the commission record
// still yields a live, memory-only supervisor, with ErrUnjournaled.
func TestNewDegradesOnFullDisk(t *testing.T) {
	efs := journal.NewErrFS(nil)
	st, _, err := journal.OpenStore(filepath.Join(t.TempDir(), "fleet.wal"), journal.StoreConfig{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	efs.SetNoSpace(true)
	s, err := New(asDevices(testFleet(2)), testConfig(), st)
	if !errors.Is(err, ErrUnjournaled) || s == nil || !s.Unjournaled() {
		t.Fatalf("New over a full disk: supervisor %v, err %v; want a memory-only supervisor and ErrUnjournaled", s, err)
	}
}

// TestNewRefusesUnnamedDevice: every device needs an ID to journal under.
func TestNewRefusesUnnamedDevice(t *testing.T) {
	devs := testFleet(1)
	devs[0].id = ""
	if _, err := New(asDevices(devs), testConfig(), nil); err == nil {
		t.Fatal("device with an empty ID accepted")
	}
	// a payload compaction cannot read is kept, never dropped
	if recordRound([]byte("x")) != 1<<62 {
		t.Fatal("an unreadable record would be compacted away")
	}
}

// TestCompactNowErrors: CompactNow refuses without a store and after the
// supervisor degraded, remembers a failed compaction that left the WAL live,
// and degrades when the failure poisoned the WAL.
func TestCompactNowErrors(t *testing.T) {
	mem, err := New(asDevices(testFleet(1)), testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.CompactNow(); err == nil {
		t.Error("CompactNow without a store succeeded")
	}

	efs := journal.NewErrFS(nil)
	st, _, err := journal.OpenStore(filepath.Join(t.TempDir(), "fleet.wal"), journal.StoreConfig{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devs := testFleet(2)
	s, err := New(asDevices(devs), testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	efs.FailNextRename()
	if err := s.CompactNow(); !errors.Is(err, journal.ErrInjected) || s.CompactionError() == nil || s.Unjournaled() {
		t.Fatalf("torn publish: err %v, CompactionError %v, unjournaled %v", err, s.CompactionError(), s.Unjournaled())
	}
	if err := s.CompactNow(); err != nil || s.CompactionError() != nil {
		t.Fatalf("retried compaction: err %v, CompactionError %v", err, s.CompactionError())
	}
	efs.FailNextSync(1)
	if err := s.CompactNow(); !errors.Is(err, ErrUnjournaled) || !s.Unjournaled() {
		t.Fatalf("failed WAL fsync: err %v, unjournaled %v", err, s.Unjournaled())
	}
	if err := s.CompactNow(); !errors.Is(err, ErrUnjournaled) {
		t.Fatalf("CompactNow after the degrade returned %v", err)
	}
}

// TestResumeRefusals: a journal that does not parse, a device the journal
// names but the fleet lacks, and an empty fleet are each refused.
func TestResumeRefusals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.wal")
	st, _, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	devs := testFleet(2)
	sup, err := New(asDevices(devs), testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	advance(devs, 1)
	if _, err := sup.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	_, rec, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		devs []Device
		rec  journal.Recovered
		want string
	}{
		"garbage":        {asDevices(devs), journal.Recovered{Records: [][]byte{[]byte("x")}}, "unparseable"},
		"missing device": {asDevices(devs[:1]), rec, "not present in the fleet"},
		"empty fleet":    {nil, rec, "no devices"},
	} {
		if _, err := Resume(tc.devs, testConfig(), nil, tc.rec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resume returned %v, want an error naming %q", name, err, tc.want)
		}
	}
}
