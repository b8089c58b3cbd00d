package campaign

import (
	"fmt"
	"strings"

	"reramtest/internal/monitor"
)

// Scorecard aggregates campaign outcomes into the robustness metrics the
// hardened runtime is gated on.
type Scorecard struct {
	Campaigns, Rounds int

	// event census
	Persistent, CriticalEvents, Transients int

	// detection quality
	MissedCritical   int // persistent Critical-severity events never confirmed Critical
	MissedPersistent int // persistent events (≥ Degraded severity) never confirmed at all
	FalseAlarmFlips  int // confirmed escalations in rounds with no persistent fault active
	TransientFlaps   int // confirmed-status changes inside transient glitch windows
	RawFlapWindows   int // transient windows where the raw evidence deviated (an un-debounced monitor flaps)
	TransientWindows int // transient windows scored (no persistent fault active)

	// supervised repair quality
	Repairable, Recovered, GaveUp int

	// runtime survival
	SensorFaultRounds, RejectedReadouts, RecoveredPanics int
}

// minRecoveryRate is the gate's floor on RecoveryRate.
const minRecoveryRate = 0.8

// RecoveryRate is the fraction of repairable (persistent, detected) events
// whose supervised repair verified clean AND restored probe fidelity within
// RecoveryBand of commissioning.
func (s Scorecard) RecoveryRate() float64 {
	if s.Repairable == 0 {
		return 1
	}
	return float64(s.Recovered) / float64(s.Repairable)
}

// Score aggregates campaign results into a scorecard.
func Score(results []Result) Scorecard {
	var s Scorecard
	s.Campaigns = len(results)
	for _, res := range results {
		s.Rounds += len(res.Rounds)
		s.RejectedReadouts += res.RejectedReadouts
		s.RecoveredPanics += res.RecoveredPanics

		// index persistent-fault activity per round: from injection until a
		// recovered repair round
		activeAt := make([]bool, len(res.Rounds)+2)
		for _, ev := range res.Events {
			if ev.Kind.Transient() {
				continue
			}
			until := len(res.Rounds)
			for _, rec := range res.Rounds {
				if rec.Round >= ev.Round && rec.Recovered {
					until = rec.Round
					break
				}
			}
			for r := ev.Round; r <= until && r < len(activeAt); r++ {
				activeAt[r] = true
			}
		}

		for _, rec := range res.Rounds {
			if rec.SensorFault {
				s.SensorFaultRounds++
			}
			if rec.Changed && rec.Confirmed > monitor.Healthy && !activeAt[rec.Round] {
				s.FalseAlarmFlips++
			}
		}

		for _, ev := range res.Events {
			if ev.Kind.Transient() {
				s.Transients++
				// score the window only when it does not overlap real damage
				lo, hi := ev.Round, ev.Round+ev.Duration+res.EscalateAfter
				overlaps := false
				for r := lo; r <= hi && r < len(activeAt); r++ {
					overlaps = overlaps || activeAt[r]
				}
				if overlaps {
					continue
				}
				s.TransientWindows++
				rawDeviated := false
				for _, rec := range res.Rounds {
					if rec.Round < lo || rec.Round > hi {
						continue
					}
					if rec.Changed {
						s.TransientFlaps++
					}
					if rec.Raw != monitor.Healthy || rec.SensorFault {
						rawDeviated = true
					}
				}
				if rawDeviated {
					s.RawFlapWindows++
				}
				continue
			}

			s.Persistent++
			if ev.Severity >= monitor.Critical {
				s.CriticalEvents++
				if ev.MaxConfirmed < monitor.Critical {
					s.MissedCritical++
				}
			}
			if ev.Severity >= monitor.Degraded && ev.DetectedAt == 0 {
				s.MissedPersistent++
			}
			if ev.Severity >= monitor.Degraded {
				s.Repairable++
				if ev.Recovered && ev.FidelityAfter >= res.CommissionFidelity-RecoveryBand {
					s.Recovered++
				}
				if ev.GaveUp {
					s.GaveUp++
				}
			}
		}
	}
	return s
}

// Failures lists every violated acceptance criterion (empty = the soak
// passed): zero missed Critical events, zero confirmed flaps on transient
// glitches (while the raw evidence demonstrably deviates), and a recovery
// rate of at least minRecoveryRate.
func (s Scorecard) Failures() []string {
	// a soak that exercised nothing proves nothing: refuse the vacuous pass
	if s.Campaigns == 0 || s.Persistent == 0 || s.TransientWindows == 0 {
		return []string{fmt.Sprintf("nothing exercised (campaigns=%d persistent=%d transientWindows=%d) — run more campaigns/rounds",
			s.Campaigns, s.Persistent, s.TransientWindows)}
	}
	var fails []string
	if s.MissedCritical > 0 {
		fails = append(fails, fmt.Sprintf("%d/%d Critical-severity events missed", s.MissedCritical, s.CriticalEvents))
	}
	if s.MissedPersistent > 0 {
		fails = append(fails, fmt.Sprintf("%d/%d persistent events never detected", s.MissedPersistent, s.Persistent))
	}
	if s.TransientFlaps > 0 {
		fails = append(fails, fmt.Sprintf("%d confirmed-status flaps on transient glitches", s.TransientFlaps))
	}
	if s.RawFlapWindows == 0 {
		fails = append(fails, "no transient window perturbed the raw monitor — flap suppression untested")
	}
	if s.FalseAlarmFlips > 0 {
		fails = append(fails, fmt.Sprintf("%d false-alarm escalations on healthy rounds", s.FalseAlarmFlips))
	}
	if rate := s.RecoveryRate(); rate < minRecoveryRate {
		fails = append(fails, fmt.Sprintf("recovery rate %.0f%% < %.0f%% (%d/%d, %d gave up)",
			100*rate, 100*minRecoveryRate, s.Recovered, s.Repairable, s.GaveUp))
	}
	return fails
}

// String renders the scorecard as a small report.
func (s Scorecard) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaigns=%d rounds=%d\n", s.Campaigns, s.Rounds)
	fmt.Fprintf(&b, "events: persistent=%d (critical=%d) transient=%d\n",
		s.Persistent, s.CriticalEvents, s.Transients)
	fmt.Fprintf(&b, "detection: missedCritical=%d missedPersistent=%d falseAlarms=%d\n",
		s.MissedCritical, s.MissedPersistent, s.FalseAlarmFlips)
	fmt.Fprintf(&b, "debounce: transientWindows=%d confirmedFlaps=%d rawFlapWindows=%d\n",
		s.TransientWindows, s.TransientFlaps, s.RawFlapWindows)
	fmt.Fprintf(&b, "repair: repairable=%d recovered=%d gaveUp=%d recoveryRate=%.0f%%\n",
		s.Repairable, s.Recovered, s.GaveUp, 100*s.RecoveryRate())
	fmt.Fprintf(&b, "survival: sensorFaultRounds=%d rejectedReadouts=%d recoveredPanics=%d",
		s.SensorFaultRounds, s.RejectedReadouts, s.RecoveredPanics)
	return b.String()
}
