package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"reramtest/internal/journal"
)

// snapfallDir is the committed fixture of a compacted durable-state family
// whose NEWEST snapshot generation is corrupt: fleet.wal plus generations 1
// and 2, with generation 2's bytes flipped. Recovery must fall back to
// generation 1 and reconstruct the exact same fleet state from gen 1 + the
// WAL tail — the lossless one-generation-fallback property. Regenerate with
//
//	FLEET_REGEN_FIXTURES=1 go test ./internal/fleet -run RegenSnapfallFixture
const snapfallDir = "testdata/snapfall"

// TestStoreCrashRestartEquivalence is TestCrashRestartEquivalence with
// compaction every 4 ticks: for every crash point — including ones landing
// right on a compaction round, where recovery must fold snapshot + tail
// rather than the full history — the crashed-and-resumed run must match the
// uninterrupted one bit for bit. The uninterrupted arm is also checked
// against a memory-only supervisor, proving journaling, snapshots and
// compaction never perturb supervision itself.
func TestStoreCrashRestartEquivalence(t *testing.T) {
	const ticks, compactEvery = 14, 4
	memBase, memSup := driveFleet(t, scriptedScenario(), "", ticks, 0, nil, false)
	base, baseSup := driveFleet(t, scriptedScenario(),
		filepath.Join(t.TempDir(), "base.wal"), ticks, compactEvery, nil, false)
	if !reflect.DeepEqual(base, memBase) {
		t.Fatalf("journaling changed supervision outcomes:\nmemory-only %v\njournaled   %v", memBase, base)
	}
	baseSnap := baseSup.Snapshot()
	if !reflect.DeepEqual(baseSnap, memSup.Snapshot()) {
		t.Fatal("journaling changed final durable state")
	}
	if baseSup.store.Generation() < 3 {
		t.Fatalf("14 ticks at CompactEvery=4 produced only generation %d — compaction not exercised",
			baseSup.store.Generation())
	}

	for k := 1; k < ticks; k++ {
		k := k
		t.Run(fmt.Sprintf("crashAfter=%d", k), func(t *testing.T) {
			got, sup := driveFleet(t, scriptedScenario(),
				filepath.Join(t.TempDir(), "crash.wal"), ticks, compactEvery, map[int]bool{k: true}, k%2 == 0)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("confirmed-status sequences diverge:\nuninterrupted %v\ncrashed       %v", base, got)
			}
			if !reflect.DeepEqual(sup.Snapshot(), baseSnap) {
				t.Fatalf("final durable state diverges:\n%+v\nvs\n%+v", sup.Snapshot(), baseSnap)
			}
		})
	}
}

// TestNewRefusesStoreWithHistory: commissioning over a store that already
// holds a fleet's journal must be refused — accepted, the second life
// restarts at round 0 below the stored snapshot's sequence and every tick it
// acknowledges is lost on the next recovery. Resume over the same store keeps
// them.
func TestNewRefusesStoreWithHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.wal")
	devs := scriptedScenario()
	_, first := driveFleet(t, devs, path, 6, 4, nil, false)
	if err := first.store.Close(); err != nil {
		t.Fatal(err)
	}

	st, rec, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	if rec.SnapshotGen != 1 || rec.SnapshotSeq != 4 {
		t.Fatalf("first life recovered generation %d at seq %d, want 1 at 4", rec.SnapshotGen, rec.SnapshotSeq)
	}
	cfg := testConfig()
	cfg.CompactEvery = 4
	if _, err := New(asDevices(devs), cfg, st); !errors.Is(err, ErrStoreHasHistory) {
		t.Fatalf("New over a store with history returned %v, want ErrStoreHasHistory", err)
	}
	if size := st.Size(); size != first.store.Size() {
		t.Fatalf("refused commissioning still wrote to the WAL: %d → %d bytes", first.store.Size(), size)
	}

	// the second life resumes instead: its acknowledged ticks survive a restart
	sup, err := Resume(asDevices(devs), cfg, st, rec)
	if err != nil {
		t.Fatal(err)
	}
	for round := 7; round <= 9; round++ {
		advance(devs, round)
		if _, err := sup.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := sup.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err = journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	third, err := Resume(asDevices(devs), cfg, st, rec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Round() != 9 || !reflect.DeepEqual(third.Snapshot(), want) {
		t.Fatalf("restart landed on round %d, want 9 with the second life's state", third.Round())
	}
}

// TestStoreAutoCompactionBoundsWAL: pure size-triggered compaction (no tick
// cadence) must keep the WAL within ~2× the threshold for the fleet's whole
// lifetime — threshold's worth of retained previous-generation records plus
// threshold's worth of new growth before the next trigger.
func TestStoreAutoCompactionBoundsWAL(t *testing.T) {
	const threshold = 8 << 10
	st, _, err := journal.OpenStore(filepath.Join(t.TempDir(), "fleet.wal"),
		journal.StoreConfig{CompactBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	devs := scriptedScenario()
	sup, err := New(asDevices(devs), testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	var maxRecord int64
	for round := 1; round <= 60; round++ {
		advance(devs, round)
		before := st.Size()
		if _, err := sup.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
		if grew := st.Size() - before; grew > maxRecord {
			maxRecord = grew
		}
		if limit := int64(2*threshold) + maxRecord; st.Size() > limit {
			t.Fatalf("round %d: WAL at %d bytes exceeds bound %d (threshold %d)",
				round, st.Size(), limit, threshold)
		}
	}
	if st.Generation() < 2 {
		t.Fatalf("60 ticks never re-compacted (generation %d)", st.Generation())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDegradeToMemoryOnDiskFault: a persistent disk fault mid-run must
// surface exactly once as ErrUnjournaled, flip the supervisor to memory-only
// — still supervising, still serving — and leave the durable truth at the
// last successfully committed round.
func TestStoreDegradeToMemoryOnDiskFault(t *testing.T) {
	efs := journal.NewErrFS(nil)
	path := filepath.Join(t.TempDir(), "fleet.wal")
	st, _, err := journal.OpenStore(path, journal.StoreConfig{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	devs := testFleet(2)
	s, err := New(asDevices(devs), testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	advance(devs, 1)
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}

	efs.SetNoSpace(true)
	advance(devs, 2)
	_, err = s.Tick(context.Background())
	if !errors.Is(err, ErrUnjournaled) {
		t.Fatalf("tick over a full disk returned %v, want ErrUnjournaled", err)
	}
	if !s.Unjournaled() {
		t.Fatal("supervisor not flagged Unjournaled")
	}
	if !errors.Is(s.JournalError(), journal.ErrInjected) {
		t.Fatalf("JournalError %v does not surface the injected fault", s.JournalError())
	}

	// exactly once: later ticks run clean, memory-only
	for round := 3; round <= 5; round++ {
		advance(devs, round)
		if _, err := s.Tick(context.Background()); err != nil {
			t.Fatalf("round %d after degrade: %v", round, err)
		}
	}
	if serving := s.Serving(); len(serving) != 2 {
		t.Fatalf("degraded fleet stopped serving: %v", serving)
	}
	if s.Round() != 5 {
		t.Fatalf("degraded fleet at round %d, want 5", s.Round())
	}
	if err := s.CompactNow(); !errors.Is(err, ErrUnjournaled) {
		t.Fatalf("compaction on a degraded fleet returned %v", err)
	}

	// the disk holds exactly the pre-fault history: recovery lands on round 1
	st.Close() // poisoned: returns the sticky error, nothing left to save
	st2, rec, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	resumed, err := Resume(asDevices(testFleet(2)), testConfig(), st2, rec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Round() != 1 {
		t.Fatalf("durable truth at round %d, want 1 (the last synced tick)", resumed.Round())
	}
	if resumed.Unjournaled() {
		t.Fatal("fresh resume inherited the Unjournaled flag")
	}
}

// TestStoreResumeLegacySnapshotlessWAL: the committed pre-snapshot fixture —
// a WAL with no snapshot family at all, just a store that has not compacted
// yet — must resume from its records alone, then start compacting like any
// other fleet.
func TestStoreResumeLegacySnapshotlessWAL(t *testing.T) {
	raw, err := os.ReadFile(precostFixture)
	if err != nil {
		t.Fatalf("committed fixture missing: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fleet.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || rec.SnapshotsSkipped != 0 {
		t.Fatalf("snapshot-less WAL grew a snapshot: %+v", rec)
	}
	cfg := testConfig()
	cfg.CompactEvery = 2
	devs := testFleet(2)
	s, err := Resume(asDevices(devs), cfg, st, rec)
	if err != nil {
		t.Fatalf("Resume over snapshot-less WAL: %v", err)
	}
	if s.Round() != 3 {
		t.Fatalf("snapshot-less resume landed at round %d, want 3", s.Round())
	}

	// round 4 hits the cadence and publishes the family's first snapshot
	// generation
	advance(devs, 4)
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 1 {
		t.Fatalf("post-resume compaction wrote generation %d, want 1", st.Generation())
	}
	want := s.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2.Snapshot == nil || rec2.SnapshotGen != 1 || rec2.SnapshotSeq != 4 {
		t.Fatalf("compacted family did not recover snapshot-first: %+v", rec2)
	}
	s2, err := Resume(asDevices(testFleet(2)), cfg, st2, rec2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.Snapshot(), want) {
		t.Fatalf("snapshot-first resume diverges from pre-crash state:\n%+v\nvs\n%+v", s2.Snapshot(), want)
	}
}

// TestRegenSnapfallFixture rewrites the committed corrupt-newest-generation
// fixture: a real compacted run, then generation 2's bytes flipped on disk.
func TestRegenSnapfallFixture(t *testing.T) {
	if os.Getenv("FLEET_REGEN_FIXTURES") == "" {
		t.Skip("set FLEET_REGEN_FIXTURES=1 to rewrite testdata/snapfall")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.wal")
	st, _, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.CompactEvery = 3
	devs := scriptedScenario()
	s, err := New(asDevices(devs), cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 8; round++ {
		advance(devs, round)
		if _, err := s.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// generations 1 (round 3) and 2 (round 6) exist; corrupt the newest
	newest := fmt.Sprintf("%s.snap-%016x", path, 2)
	img, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-5] ^= 0xFF
	if err := os.WriteFile(newest, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(snapfallDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(snapfallDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snapfallDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copySnapfall clones the committed fixture into a temp dir (recovery
// mutates the family — temp cleanup, tail truncation — and the committed
// bytes must stay pristine).
func copySnapfall(t *testing.T) string {
	t.Helper()
	entries, err := os.ReadDir(snapfallDir)
	if err != nil {
		t.Fatalf("committed fixture missing: %v", err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(snapfallDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStoreResumeFallsBackOnCorruptSnapshotFixture: recovery over the
// committed fixture must skip the corrupt generation 2, resume from
// generation 1 + the WAL tail, and land on EXACTLY the state an
// uninterrupted run reaches — the corruption costs an alarm counter, zero
// data.
func TestStoreResumeFallsBackOnCorruptSnapshotFixture(t *testing.T) {
	dir := copySnapfall(t)
	st, rec, err := journal.OpenStore(filepath.Join(dir, "fleet.wal"), journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotsSkipped != 1 {
		t.Fatalf("skipped %d generations, want 1 (the corrupt newest)", rec.SnapshotsSkipped)
	}
	if rec.SnapshotGen != 1 || rec.SnapshotSeq != 3 {
		t.Fatalf("fell back to generation %d at seq %d, want 1 at 3", rec.SnapshotGen, rec.SnapshotSeq)
	}
	cfg := testConfig()
	cfg.CompactEvery = 3
	devs := scriptedScenario()
	s, err := Resume(asDevices(devs), cfg, st, rec)
	if err != nil {
		t.Fatalf("fallback resume: %v", err)
	}
	if s.Round() != 8 {
		t.Fatalf("fallback resume landed at round %d, want 8", s.Round())
	}

	// lossless: identical to an uninterrupted 8-round run of the same script
	baseDevs := scriptedScenario()
	base, err := New(asDevices(baseDevs), testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 8; round++ {
		advance(baseDevs, round)
		if _, err := base.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(s.Snapshot(), base.Snapshot()) {
		t.Fatalf("fallback lost state:\nrecovered %+v\nexpected  %+v", s.Snapshot(), base.Snapshot())
	}

	// life goes on: the next cadence round compacts ABOVE the corrupt
	// generation
	advance(devs, 9)
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 3 {
		t.Fatalf("post-fallback compaction wrote generation %d, want 3", st.Generation())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTrips: a Checkpoint payload replayed on its own must
// reconstruct exactly the Snapshot the supervisor holds — the property
// compaction stands on.
func TestCheckpointRoundTrips(t *testing.T) {
	devs := testFleet(2)
	s, err := New(asDevices(devs), testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		advance(devs, round)
		if _, err := s.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snaps, round, err := ReplayRecovered(journal.Recovered{Snapshot: payload})
	if err != nil {
		t.Fatal(err)
	}
	if round != 2 {
		t.Fatalf("checkpoint at round %d, want 2", round)
	}
	if !reflect.DeepEqual(snaps, s.Snapshot()) {
		t.Fatalf("checkpoint diverges from live snapshot:\n%+v\nvs\n%+v", snaps, s.Snapshot())
	}
}
