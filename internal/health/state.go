// Durable runtime state. A deployed supervisor journals every transition of
// this state (see internal/journal and internal/fleet); after a crash the
// journal is replayed into RestoreState and the runtime continues exactly
// where the last durable round left it — same confirmed status, same
// hysteresis streaks, same counters. The monitor's report history and the
// round ring buffer are deliberately NOT part of the durable state: they are
// diagnostics, rebuildable from logs, and excluding them keeps journal
// records small enough to write every round.
package health

import (
	"fmt"

	"reramtest/internal/monitor"
)

// State is the durable snapshot of a Runtime's decision state: everything
// the hysteresis tracker and the fleet's accounting need to survive a
// supervisor crash.
type State struct {
	// Seq is the number of rounds the runtime has run.
	Seq int `json:"seq"`
	// Confirmed is the debounced status.
	Confirmed monitor.Status `json:"confirmed"`
	// UpStreak/UpMin and DownStreak/DownMax are the directional hysteresis
	// streaks (see Runtime).
	UpStreak   int            `json:"upStreak"`
	UpMin      monitor.Status `json:"upMin"`
	DownStreak int            `json:"downStreak"`
	DownMax    monitor.Status `json:"downMax"`
	// Flips, Rejects and Panics are the lifetime robustness counters.
	Flips   int `json:"flips"`
	Rejects int `json:"rejects"`
	Panics  int `json:"panics"`
}

// Validate rejects snapshots no runtime could have produced — a journal that
// replays into an invalid State was corrupted above the framing layer and
// must not be trusted.
func (s State) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Seq", s.Seq}, {"UpStreak", s.UpStreak}, {"DownStreak", s.DownStreak},
		{"Flips", s.Flips}, {"Rejects", s.Rejects}, {"Panics", s.Panics}} {
		if f.v < 0 {
			return fmt.Errorf("health: state %s must be ≥ 0, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    monitor.Status
	}{{"Confirmed", s.Confirmed}, {"UpMin", s.UpMin}, {"DownMax", s.DownMax}} {
		if f.v < monitor.Healthy || f.v > monitor.Critical {
			return fmt.Errorf("health: state %s out of range: %d", f.name, int(f.v))
		}
	}
	if s.Panics > s.Rejects {
		return fmt.Errorf("health: state counts %d panics but only %d rejects", s.Panics, s.Rejects)
	}
	return nil
}

// ExportState snapshots the runtime's durable state.
func (rt *Runtime) ExportState() State {
	return State{
		Seq:       rt.seq,
		Confirmed: rt.confirmed,
		UpStreak:  rt.upStreak, UpMin: rt.upMin,
		DownStreak: rt.downStreak, DownMax: rt.downMax,
		Flips: rt.flips, Rejects: rt.rejects, Panics: rt.panics,
	}
}

// RestoreState overwrites the runtime's decision state with a snapshot
// previously produced by ExportState (typically replayed from a journal).
// The round history is not restored — it restarts empty, which is why Seq
// keeps counting from the snapshot rather than from the history length.
func (rt *Runtime) RestoreState(s State) error {
	if err := s.Validate(); err != nil {
		return err
	}
	rt.seq = s.Seq
	rt.confirmed = s.Confirmed
	rt.upStreak, rt.upMin = s.UpStreak, s.UpMin
	rt.downStreak, rt.downMax = s.DownStreak, s.DownMax
	rt.flips, rt.rejects, rt.panics = s.Flips, s.Rejects, s.Panics
	return nil
}

// Probe performs one single-attempt validated readout: no retries, no
// backoff, no hysteresis update, no history entry. It is the cheap liveness
// check a circuit breaker uses while a device is quarantined — the whole
// point of the breaker is to stop burning the full retry budget on a sensor
// that has been failing for rounds on end.
func (rt *Runtime) Probe(accel monitor.Infer) error {
	probs, err := rt.safeInfer(accel)
	if err == nil {
		err = rt.validate(probs)
	}
	if err != nil {
		rt.rejects++
	}
	return err
}
