// Crash soak: the durable-state torture matrix. Every cell of
// (crash point × disk fault) runs the same seeded fleet campaign over a
// snapshot-compacting journal.Store backed by a fault-injecting filesystem,
// kills the supervisor, recovers from whatever the disk holds, and compares
// the recovered state bit for bit against an uninterrupted baseline run of
// the identical hardware. The gates:
//
//   - lossless recovery: after a recoverable fault (plain crash, torn WAL
//     tail, torn snapshot publish, corrupt newest snapshot generation, torn
//     compaction rename) the recovered fleet must land on EXACTLY the crash
//     round with bit-identical state, and finishing the campaign must match
//     the baseline's final state.
//   - fail-stop honesty: a fault that poisons the WAL (short write, failed
//     fsync, ENOSPC, crash-at-byte) must surface as a typed error AND flip
//     the supervisor to Unjournaled — while supervision itself continues
//     bit-identically to the baseline, memory-only. Recovery then lands at
//     or after the last acknowledged round: zero writes acked then lost.
//   - bounded WAL: across every arm's whole lifetime the WAL never exceeds
//     ~2× the compaction threshold.
package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"

	"reramtest/internal/fleet"
	"reramtest/internal/journal"
)

// Disk-fault kinds, one per torture-matrix column.
const (
	// FaultNone is the control column: a clean kill, nothing injected.
	FaultNone = "none"
	// FaultTornTail appends a torn frame to the WAL after the kill.
	FaultTornTail = "torn-tail"
	// FaultTornSnapshotTmp leaves a half-written snapshot temp file behind,
	// as a crash between snapshot write and rename would.
	FaultTornSnapshotTmp = "torn-snapshot-tmp"
	// FaultCorruptSnapshot flips bytes in the newest snapshot generation;
	// recovery must fall back a generation, losslessly.
	FaultCorruptSnapshot = "corrupt-snapshot"
	// FaultTornRename fails the snapshot publish rename at a compaction
	// round; journaling must continue and the retried compaction succeed.
	FaultTornRename = "torn-rename"
	// FaultShortWrite tears one group-commit append mid-frame.
	FaultShortWrite = "short-write"
	// FaultSyncFail fails the group-commit fsync (fsyncgate semantics).
	FaultSyncFail = "fsync-fail"
	// FaultNoSpace turns the disk full, permanently.
	FaultNoSpace = "enospc"
	// FaultCrashAtByte kills the filesystem mid-write at a byte boundary.
	FaultCrashAtByte = "crash-at-byte"
)

// RecoverableFaults leave the on-disk history complete: recovery must be
// lossless to the exact crash round.
var RecoverableFaults = []string{
	FaultNone, FaultTornTail, FaultTornSnapshotTmp, FaultCorruptSnapshot, FaultTornRename,
}

// FailStopFaults poison the WAL mid-campaign: the supervisor must degrade to
// memory-only and the disk must still recover every acknowledged round.
var FailStopFaults = []string{
	FaultShortWrite, FaultSyncFail, FaultNoSpace, FaultCrashAtByte,
}

// AllFaults is the full torture-matrix column set.
func AllFaults() []string {
	return append(append([]string{}, RecoverableFaults...), FailStopFaults...)
}

// CrashSoakConfig parameterises the torture matrix.
type CrashSoakConfig struct {
	// Devices is the fleet size; Rounds the campaign length of every arm.
	Devices, Rounds int
	// Plant sizes each device-under-test.
	Plant PlantConfig
	// Fleet tunes the supervisor; Fleet.CompactEvery drives cadence
	// compaction (must be ≥ 1 so snapshot-dependent faults have a snapshot
	// to attack).
	Fleet fleet.Config
	// CrashPoints are the rounds after which every fault column strikes
	// (at least one). Every point must be ≥ Fleet.CompactEvery and ≤ Rounds.
	CrashPoints []int
}

// CrashSoakCompactBytes is the Store's size-compaction threshold and the
// base of the WAL bound (max WAL ≤ 2×CrashSoakCompactBytes + one record).
const CrashSoakCompactBytes = 16 << 10

// crashDegradedRounds is how many extra memory-only ticks a fail-stop cell
// runs after degrading, proving the fleet keeps supervising.
const crashDegradedRounds = 2

// DefaultCrashSoakConfig returns the gate-scale matrix: 3 devices, 12
// rounds, 3 crash points × all 9 fault columns = 27 cells plus a baseline.
func DefaultCrashSoakConfig() CrashSoakConfig {
	fcfg := soakFleetConfig()
	fcfg.RepairBudget = 10
	fcfg.CompactEvery = 3
	return CrashSoakConfig{
		Devices: 3, Rounds: 12,
		Plant:       DefaultPlantConfig(),
		Fleet:       fcfg,
		CrashPoints: []int{4, 7, 11},
	}
}

// CrashCell is one (crash point × fault) outcome.
type CrashCell struct {
	Round int    // the crash point
	Fault string // the fault column

	Degraded       bool // the supervisor flipped to Unjournaled (fail-stop only)
	LastAcked      int  // last round acknowledged as durable before the kill
	RecoveredRound int  // round the recovery landed on
	StateMatch     bool // recovered state bit-identical to baseline at RecoveredRound
	MaxWALBytes    int64
	Failures       []string
}

// CrashSoakResult is the whole matrix's verdict.
type CrashSoakResult struct {
	Seed        int64
	Cells       []CrashCell
	MaxWALBytes int64 // across baseline and every cell
	WALBound    int64 // the bound the max was gated against
}

// Failures flattens every cell failure, prefixed with its cell coordinates.
func (r CrashSoakResult) Failures() []string {
	var out []string
	for _, c := range r.Cells {
		for _, f := range c.Failures {
			out = append(out, fmt.Sprintf("[round=%d fault=%s] %s", c.Round, c.Fault, f))
		}
	}
	return out
}

// String is the matrix's one-line report.
func (r CrashSoakResult) String() string {
	identical, degraded := 0, 0
	for _, c := range r.Cells {
		if c.StateMatch {
			identical++
		}
		if c.Degraded {
			degraded++
		}
	}
	return fmt.Sprintf("seed %d: %d/%d cells recovered bit-identical, %d degraded to memory-only, WAL peak %d of %d bytes",
		r.Seed, identical, len(r.Cells), degraded, r.MaxWALBytes, r.WALBound)
}

// crashBaseline is the uninterrupted arm: per-round durable-state snapshots
// (index = round; [0] is the commissioned state) plus WAL telemetry.
type crashBaseline struct {
	perRound  []map[string]fleet.DeviceSnapshot
	maxWAL    int64
	maxRecord int64 // largest single-tick WAL growth observed
}

// RunCrashSoak executes the torture matrix for one seed.
func RunCrashSoak(seed int64, cfg CrashSoakConfig) (CrashSoakResult, error) {
	if cfg.Devices < 1 || cfg.Rounds < 1 {
		return CrashSoakResult{}, fmt.Errorf("campaign: crash soak needs ≥ 1 device and round, got %d/%d", cfg.Devices, cfg.Rounds)
	}
	if cfg.Fleet.CompactEvery < 1 {
		return CrashSoakResult{}, errors.New("campaign: crash soak requires Fleet.CompactEvery ≥ 1 — snapshot faults need snapshots")
	}
	if len(cfg.CrashPoints) == 0 {
		return CrashSoakResult{}, errors.New("campaign: crash soak needs ≥ 1 crash point — an empty matrix proves nothing")
	}
	for _, p := range cfg.CrashPoints {
		if p < cfg.Fleet.CompactEvery || p > cfg.Rounds {
			return CrashSoakResult{}, fmt.Errorf("campaign: crash point %d outside [%d, %d]", p, cfg.Fleet.CompactEvery, cfg.Rounds)
		}
	}

	dir, err := os.MkdirTemp("", "crash-soak-*")
	if err != nil {
		return CrashSoakResult{}, err
	}
	defer os.RemoveAll(dir)

	res := CrashSoakResult{Seed: seed}
	base, err := runCrashBaseline(seed, cfg, filepath.Join(dir, "base"))
	if err != nil {
		return res, fmt.Errorf("campaign: crash-soak baseline: %w", err)
	}
	res.MaxWALBytes = base.maxWAL
	res.WALBound = 2*CrashSoakCompactBytes + base.maxRecord

	for _, point := range cfg.CrashPoints {
		for _, fault := range AllFaults() {
			cell := runCrashCell(seed, cfg, filepath.Join(dir, fmt.Sprintf("r%02d-%s", point, fault)), point, fault, base)
			if cell.MaxWALBytes > res.MaxWALBytes {
				res.MaxWALBytes = cell.MaxWALBytes
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	if res.MaxWALBytes > res.WALBound {
		res.Cells = append(res.Cells, CrashCell{Fault: "wal-bound", Failures: []string{
			fmt.Sprintf("WAL peaked at %d bytes, bound %d (2×%d + %d-byte record)",
				res.MaxWALBytes, res.WALBound, CrashSoakCompactBytes, base.maxRecord)}})
	}
	return res, nil
}

// runCrashBaseline runs the uninterrupted arm and records every round's
// durable state.
func runCrashBaseline(seed int64, cfg CrashSoakConfig, dir string) (*crashBaseline, error) {
	g, err := newRig(seed, cfg.Devices, cfg.Rounds, cfg.Plant, cfg.Fleet, dir,
		journal.StoreConfig{CompactBytes: CrashSoakCompactBytes})
	if err != nil {
		return nil, err
	}
	defer g.close()
	base := &crashBaseline{perRound: make([]map[string]fleet.DeviceSnapshot, cfg.Rounds+1)}
	base.perRound[0] = g.sup.Snapshot()
	base.maxWAL = g.st.Size()
	for round := 1; round <= cfg.Rounds; round++ {
		before := g.st.Size()
		if _, err := g.step(round, nil); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		if grew := g.st.Size() - before; grew > base.maxRecord {
			base.maxRecord = grew
		}
		if g.st.Size() > base.maxWAL {
			base.maxWAL = g.st.Size()
		}
		base.perRound[round] = g.sup.Snapshot()
	}
	return base, nil
}

// armFault schedules a fail-stop fault (or the torn rename) on the injected
// filesystem, to strike during the next tick's journaling.
func armFault(efs *journal.ErrFS, fault string) {
	switch fault {
	case FaultShortWrite:
		efs.ShortWriteNext(5)
	case FaultSyncFail:
		efs.FailNextSync(1)
	case FaultNoSpace:
		efs.SetNoSpace(true)
	case FaultCrashAtByte:
		efs.CrashAtByte(efs.BytesWritten() + 17)
	case FaultTornRename:
		efs.FailNextRename()
	}
}

// newestSnapshotFile returns the newest on-disk snapshot generation of the
// WAL at path ("" when none exists).
func newestSnapshotFile(path string) string {
	matches, _ := filepath.Glob(path + ".snap-*") // a malformed pattern matches nothing
	var gens []string
	for _, m := range matches {
		if !strings.HasSuffix(m, ".tmp") {
			gens = append(gens, m)
		}
	}
	if len(gens) == 0 {
		return ""
	}
	sort.Strings(gens) // %016x names sort lexicographically by generation
	return gens[len(gens)-1]
}

// damageDisk strikes a dead-disk fault column on the killed supervisor's
// files: a torn WAL tail, a half-written snapshot temp file, or flipped bytes
// in the newest snapshot generation. The other columns strike while running.
func damageDisk(path, fault string) error {
	switch fault {
	case FaultTornTail:
		return appendGarbage(path)
	case FaultTornSnapshotTmp:
		tmp := fmt.Sprintf("%s.snap-%016x.tmp", path, uint64(999))
		return os.WriteFile(tmp, []byte("RSNP torn mid-publish"), 0o644)
	case FaultCorruptSnapshot:
		newest := newestSnapshotFile(path)
		if newest == "" {
			return errors.New("no snapshot generation on disk to corrupt — compaction never ran before the crash")
		}
		img, err := os.ReadFile(newest)
		if err != nil {
			return err
		}
		img[len(img)/2] ^= 0xFF
		img[len(img)-3] ^= 0xFF
		return os.WriteFile(newest, img, 0o644)
	}
	return nil
}

// runCrashCell executes one torture-matrix cell.
func runCrashCell(seed int64, cfg CrashSoakConfig, dir string, crashRound int, fault string, base *crashBaseline) CrashCell {
	cell := CrashCell{Round: crashRound, Fault: fault}
	fail := func(format string, args ...any) {
		cell.Failures = append(cell.Failures, fmt.Sprintf(format, args...))
	}
	efs := journal.NewErrFS(nil)
	g, err := newRig(seed, cfg.Devices, cfg.Rounds, cfg.Plant, cfg.Fleet, dir,
		journal.StoreConfig{FS: efs, CompactBytes: CrashSoakCompactBytes})
	if err != nil {
		fail("%v", err)
		return cell
	}
	defer g.close()

	failStop := slices.Contains(FailStopFaults, fault)
	// the torn rename strikes the last compaction round at or before the
	// crash point — the only rounds where a snapshot publish happens
	renameRound := 0
	if fault == FaultTornRename {
		renameRound = crashRound - crashRound%cfg.Fleet.CompactEvery
	}

	trackWAL := func() {
		if g.st.Err() == nil {
			if sz := g.st.Size(); sz > cell.MaxWALBytes {
				cell.MaxWALBytes = sz
			}
		}
	}
	for round := 1; round <= crashRound; round++ {
		strike := (failStop && round == crashRound) || round == renameRound
		_, err := g.step(round, func() {
			if strike {
				armFault(efs, fault)
			}
		})
		switch {
		case strike && failStop:
			if !errors.Is(err, fleet.ErrUnjournaled) {
				fail("fail-stop fault returned %v, want ErrUnjournaled", err)
			}
			if !errors.Is(g.sup.JournalError(), journal.ErrInjected) {
				fail("JournalError %v does not surface the injected fault", g.sup.JournalError())
			}
		case strike: // torn rename: typed compaction error, WAL stays live
			if !errors.Is(err, journal.ErrInjected) {
				fail("torn rename returned %v, want ErrInjected", err)
			}
			if g.sup.Unjournaled() {
				fail("torn rename degraded the supervisor — the WAL was still healthy")
			}
			if g.sup.CompactionError() == nil {
				fail("torn rename not remembered in CompactionError")
			}
		case err != nil:
			fail("round %d: unexpected tick error %v", round, err)
		}
		if err == nil && !g.sup.Unjournaled() {
			cell.LastAcked = round
		}
		trackWAL()
	}
	cell.Degraded = g.sup.Unjournaled()

	// fail-stop cells: the degraded fleet must keep supervising, memory-only,
	// bit-identical to the baseline
	postCrash := crashRound
	if failStop {
		if !cell.Degraded {
			fail("fail-stop fault did not flip the supervisor to Unjournaled")
		}
		end := crashRound + crashDegradedRounds
		if end > cfg.Rounds {
			end = cfg.Rounds
		}
		for round := crashRound + 1; round <= end; round++ {
			if _, err := g.step(round, nil); err != nil {
				fail("degraded round %d: %v", round, err)
			}
		}
		postCrash = end
		if !reflect.DeepEqual(g.sup.Snapshot(), base.perRound[postCrash]) {
			fail("degraded supervision diverged from baseline at round %d", postCrash)
		}
		baseServes := false
		for _, snap := range base.perRound[postCrash] {
			baseServes = baseServes || inService(snap)
		}
		if len(g.sup.Serving()) == 0 && baseServes {
			fail("degraded fleet stopped serving while the baseline still served")
		}
	}

	// kill the process, strike the dead disk, heal the filesystem and
	// recover from whatever the disk holds
	rec, err := g.restart(func(path string) error {
		efs.Heal()
		return damageDisk(path, fault)
	})
	if err != nil {
		fail("recovery after round %d: %v", crashRound, err)
		return cell
	}
	if fault == FaultCorruptSnapshot && rec.SnapshotsSkipped == 0 {
		fail("corrupt snapshot generation not detected during recovery")
	}
	cell.RecoveredRound = g.sup.Round()

	// gate: zero acknowledged-then-lost writes
	if cell.RecoveredRound < cell.LastAcked {
		fail("acked round %d lost: recovery landed on %d", cell.LastAcked, cell.RecoveredRound)
	}
	// gate: recovered state bit-identical to the baseline at that round
	if cell.RecoveredRound <= cfg.Rounds &&
		reflect.DeepEqual(g.sup.Snapshot(), base.perRound[cell.RecoveredRound]) {
		cell.StateMatch = true
	} else {
		fail("recovered state diverges from baseline at round %d", cell.RecoveredRound)
	}

	if failStop {
		return cell
	}

	// recoverable cells: recovery must be lossless to the exact crash round,
	// and finishing the campaign must match the baseline's final state
	if cell.RecoveredRound != crashRound {
		fail("recoverable fault lost rounds: recovered %d, crashed after %d", cell.RecoveredRound, crashRound)
	}
	for round := crashRound + 1; round <= cfg.Rounds; round++ {
		if _, err := g.step(round, nil); err != nil {
			fail("post-recovery round %d: %v", round, err)
		}
		trackWAL()
	}
	if !reflect.DeepEqual(g.sup.Snapshot(), base.perRound[cfg.Rounds]) {
		fail("final state diverges from the uninterrupted baseline")
	}
	return cell
}
