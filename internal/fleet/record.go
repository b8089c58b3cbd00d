package fleet

import (
	"encoding/json"
	"fmt"

	"reramtest/internal/health"
	"reramtest/internal/hwcost"
	"reramtest/internal/journal"
)

// RepairDecision is one journaled strategy choice: which rung of the repair
// ladder ran on which round, what it charged against the lifetime budget,
// and how it ended. The decision log is what makes crash recovery honest
// about repair history — after a restart the resumed supervisor knows not
// just the remaining budget but how it was spent.
type RepairDecision struct {
	Round    int    `json:"round"`
	Strategy string `json:"strategy"`
	Cost     int    `json:"cost"`
	Verified bool   `json:"verified,omitempty"`
	Failed   bool   `json:"failed,omitempty"` // the apply itself errored
}

// maxDecisionLog caps the per-device decision history carried in every
// journal record. Group commits rewrite full device state each tick, so an
// unbounded log would grow every record for the device's whole life; 64
// decisions is deeper than any plausible escalation history while keeping
// records O(1).
const maxDecisionLog = 64

// DeviceRecord is one device's durable state inside a journal record:
// hysteresis snapshot, remaining repair budget, breaker position,
// retirement flag, the recent repair-strategy decision log and the current
// commission fingerprint (stimulus patterns + golden confidences hashed
// bit-exactly; it moves when a retraining repair recommissions the monitor).
type DeviceRecord struct {
	Device      string           `json:"device"`
	Fingerprint uint64           `json:"fingerprint"`
	State       health.State     `json:"state"`
	Budget      int              `json:"budget"`
	Breaker     Breaker          `json:"breaker"`
	Retired     bool             `json:"retired,omitempty"`
	Decisions   []RepairDecision `json:"decisions,omitempty"`
	// Cost is the device's cumulative hardware spend by attribution class.
	// Journals written before cost accounting existed simply omit the key;
	// replay backfills the zero breakdown, so old WALs resume cleanly with
	// the meter restarting from zero.
	Cost hwcost.CostBreakdown `json:"cost"`
}

// Record is one journaled durable state transition for the whole fleet.
// Three kinds exist today:
//
//   - "commission": written once when the supervisor first arms the fleet.
//   - "tick": written after every supervised fleet round.
//   - "snapshot": the full fleet state as a compaction anchor — the payload
//     of a journal.Store snapshot generation, never appended to the WAL
//     itself. Structurally identical to a tick (every record already carries
//     full state; group commit made ticks self-contained from day one), so
//     replay treats all three the same way.
//
// A tick is journaled as ONE record covering every device — a group commit.
// The CRC framing of internal/journal makes each record atomic, so a crash
// mid-write tears the whole tick off, never half a fleet: after replay every
// device agrees on which round was the last durable one. Records are JSON
// inside the framing: the framing proves integrity, the JSON keeps the
// schema greppable in the field. Replay is last-record-wins.
type Record struct {
	Type    string         `json:"type"`
	Round   int            `json:"round"`
	Devices []DeviceRecord `json:"devices"`
}

// Record types.
const (
	recordCommission = "commission"
	recordTick       = "tick"
	recordSnapshot   = "snapshot"
)

// encodeRecord renders a record as its journal payload.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode %s record: %w", rec.Type, err)
	}
	return payload, nil
}

// DeviceSnapshot is the replayed durable state of one device: what the
// journal proves the supervisor knew when it last reached stable storage.
type DeviceSnapshot struct {
	Round       int
	Fingerprint uint64
	State       health.State
	Budget      int
	Breaker     Breaker
	Retired     bool
	Decisions   []RepairDecision
	// Cost is the cumulative per-class hardware spend as of the snapshot
	// (zero for journals predating cost accounting).
	Cost hwcost.CostBreakdown
}

// Validate rejects snapshots that could not have been journaled by a
// correct supervisor — the defense in depth above the journal's CRC layer.
func (s DeviceSnapshot) Validate() error {
	if s.Round < 0 {
		return fmt.Errorf("fleet: snapshot round %d < 0", s.Round)
	}
	if s.Budget < 0 {
		return fmt.Errorf("fleet: snapshot budget %d < 0", s.Budget)
	}
	if err := s.State.Validate(); err != nil {
		return err
	}
	if len(s.Decisions) > maxDecisionLog {
		return fmt.Errorf("fleet: snapshot decision log %d exceeds cap %d", len(s.Decisions), maxDecisionLog)
	}
	for i, d := range s.Decisions {
		if d.Round < 0 {
			return fmt.Errorf("fleet: snapshot decision %d: negative round %d", i, d.Round)
		}
		if d.Strategy == "" {
			return fmt.Errorf("fleet: snapshot decision %d names no strategy", i)
		}
		if d.Cost < 0 {
			return fmt.Errorf("fleet: snapshot decision %d: negative cost %d", i, d.Cost)
		}
	}
	return s.Breaker.Validate()
}

// ReplayRecovered folds a journal.Store recovery into per-device snapshots
// (later records win) and returns the last fully committed round: the
// snapshot record first (when one exists), then every WAL record from a round
// the snapshot does not already cover. Records at or below the snapshot's
// sequence are stale — a crash between snapshot publish and WAL rewrite
// legitimately leaves them behind — and are skipped rather than replayed
// backwards over newer state. A store that has not compacted yet recovers
// records alone. Unknown record types are skipped for forward compatibility;
// a payload that does not parse as JSON is an error — the CRC framing already
// proved it was written intact, so garbage here means a software bug, not a
// torn write.
func ReplayRecovered(rec journal.Recovered) (snaps map[string]DeviceSnapshot, round int, err error) {
	snaps = make(map[string]DeviceSnapshot)
	if rec.Snapshot == nil {
		return foldRecords(snaps, 0, -1, rec.Records)
	}
	snaps, round, err = foldRecords(snaps, 0, -1, [][]byte{rec.Snapshot})
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: snapshot generation %d: %w", rec.SnapshotGen, err)
	}
	return foldRecords(snaps, round, int(rec.SnapshotSeq), rec.Records)
}

// foldRecords is the shared replay fold: last record wins, records with a
// round at or below minRound are skipped (minRound < 0 disables filtering).
func foldRecords(snaps map[string]DeviceSnapshot, round, minRound int, payloads [][]byte) (map[string]DeviceSnapshot, int, error) {
	for i, p := range payloads {
		var rec Record
		if err := json.Unmarshal(p, &rec); err != nil {
			return nil, 0, fmt.Errorf("fleet: journal record %d unparseable: %w", i, err)
		}
		switch rec.Type {
		case recordCommission, recordTick, recordSnapshot:
			if rec.Round < 0 {
				return nil, 0, fmt.Errorf("fleet: journal record %d: negative round %d", i, rec.Round)
			}
			if minRound >= 0 && rec.Round <= minRound {
				continue // superseded by the snapshot the caller already folded
			}
			for _, d := range rec.Devices {
				if d.Device == "" {
					return nil, 0, fmt.Errorf("fleet: journal record %d names no device", i)
				}
				snap := DeviceSnapshot{
					Round:       rec.Round,
					Fingerprint: d.Fingerprint,
					State:       d.State,
					Budget:      d.Budget,
					Breaker:     d.Breaker,
					Retired:     d.Retired,
					Decisions:   append([]RepairDecision(nil), d.Decisions...),
					Cost:        d.Cost,
				}
				if err := snap.Validate(); err != nil {
					return nil, 0, fmt.Errorf("fleet: journal record %d for %s: %w", i, d.Device, err)
				}
				snaps[d.Device] = snap
			}
			round = rec.Round
		default:
			// future record type: skip, do not fail the whole replay
		}
	}
	return snaps, round, nil
}

// recordRound parses only the round of a journal payload — the compaction
// keep-predicate's key. An unparseable payload returns a huge round so the
// predicate keeps it: dropping a record the supervisor cannot read would be
// silent data loss, keeping it is merely a few wasted WAL bytes.
func recordRound(p []byte) int {
	var rec struct {
		Round *int `json:"round"`
	}
	if json.Unmarshal(p, &rec) != nil || rec.Round == nil {
		return 1 << 62
	}
	return *rec.Round
}
