package campaign

import (
	"fmt"
	"strings"
)

// FleetScorecard aggregates fleet crash-equivalence pairs into the
// robustness metrics the supervisor is gated on.
type FleetScorecard struct {
	Campaigns, Rounds, Devices int

	// crash/restart fidelity
	Replays           int // supervisor kill+replay cycles performed
	TornCrashes       int // crashes with garbage appended to the journal
	TruncatedBytes    int // corrupt journal tail bytes discarded across replays
	StateDivergences  int // replays whose reconstructed state differed from the crashed supervisor's
	StatusDivergences int // (round, device) confirmed statuses differing crashed vs uninterrupted
	FinalDivergences  int // devices whose final durable state differs crashed vs uninterrupted
	BudgetDivergences int // devices whose remaining repair budget differs crashed vs uninterrupted

	// routing
	Routed, Sheds, Misroutes int

	// breaker + repair exercise census
	BreakerTrips, Probes, ProbeRecoveries int
	SensorFaultRounds                     int
	Recovered, GaveUp, Retired            int
}

// ScoreFleet aggregates crash-equivalence pairs into a scorecard. Routing
// and exercise counters come from the crashed runs (the harder path); the
// divergence counters compare crashed against uninterrupted.
func ScoreFleet(pairs []FleetPairResult) FleetScorecard {
	var s FleetScorecard
	s.Campaigns = len(pairs)
	for _, pair := range pairs {
		c := pair.Crashed
		s.Rounds += len(c.Confirmed)
		if len(c.Devices) > s.Devices {
			s.Devices = len(c.Devices)
		}
		s.Replays += c.Replays
		s.TornCrashes += c.TornCrashes
		s.TruncatedBytes += c.TruncatedBytes
		s.StateDivergences += c.StateDivergences
		s.StatusDivergences += pair.StatusDivergences
		s.FinalDivergences += pair.FinalStateDivergences
		s.BudgetDivergences += pair.BudgetDivergences
		s.Routed += c.Routed
		s.Sheds += c.Sheds
		s.Misroutes += c.Misroutes
		s.BreakerTrips += c.BreakerTrips
		s.Probes += c.Probes
		s.ProbeRecoveries += c.ProbeRecoveries
		s.SensorFaultRounds += c.SensorFaultRounds
		s.Recovered += c.Recovered
		s.GaveUp += c.GaveUp
		s.Retired += c.Retired
	}
	return s
}

// Failures lists every violated fleet soak acceptance criterion (empty =
// the soak passed): zero state divergence after journal replay (identical
// confirmed statuses and repair budgets versus an uninterrupted run), zero
// requests routed to quarantined or Impaired/Critical devices, corrupt
// journal tails truncated rather than trusted, and every crash, breaker and
// probe path actually exercised (a soak that exercised nothing proves
// nothing).
func (s FleetScorecard) Failures() []string {
	if s.Campaigns == 0 || s.Replays == 0 || s.Routed == 0 {
		return []string{fmt.Sprintf("nothing exercised (campaigns=%d replays=%d routed=%d) — run more campaigns/rounds",
			s.Campaigns, s.Replays, s.Routed)}
	}
	var fails []string
	if s.BreakerTrips == 0 || s.Probes == 0 {
		fails = append(fails, fmt.Sprintf("breaker path unexercised (trips=%d probes=%d)", s.BreakerTrips, s.Probes))
	}
	if s.TornCrashes > 0 && s.TruncatedBytes == 0 {
		fails = append(fails, fmt.Sprintf("%d torn crashes injected but no journal bytes truncated — corrupt-tail recovery untested",
			s.TornCrashes))
	}
	if s.StateDivergences > 0 {
		fails = append(fails, fmt.Sprintf("%d replays reconstructed a different supervisor state", s.StateDivergences))
	}
	if s.StatusDivergences > 0 {
		fails = append(fails, fmt.Sprintf("%d confirmed statuses diverged between crashed and uninterrupted runs", s.StatusDivergences))
	}
	if s.BudgetDivergences > 0 {
		fails = append(fails, fmt.Sprintf("%d devices' repair budgets diverged after replay", s.BudgetDivergences))
	}
	if s.FinalDivergences > 0 {
		fails = append(fails, fmt.Sprintf("%d devices ended with different durable state after replay", s.FinalDivergences))
	}
	if s.Misroutes > 0 {
		fails = append(fails, fmt.Sprintf("%d requests routed to quarantined or Impaired/Critical devices", s.Misroutes))
	}
	return fails
}

// String renders the scorecard as a small report.
func (s FleetScorecard) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet campaigns=%d rounds=%d devices=%d\n", s.Campaigns, s.Rounds, s.Devices)
	fmt.Fprintf(&b, "crashes: replays=%d torn=%d truncatedBytes=%d\n", s.Replays, s.TornCrashes, s.TruncatedBytes)
	fmt.Fprintf(&b, "fidelity: stateDiv=%d statusDiv=%d budgetDiv=%d finalDiv=%d\n",
		s.StateDivergences, s.StatusDivergences, s.BudgetDivergences, s.FinalDivergences)
	fmt.Fprintf(&b, "routing: routed=%d sheds=%d misroutes=%d\n", s.Routed, s.Sheds, s.Misroutes)
	fmt.Fprintf(&b, "breakers: trips=%d probes=%d probeRecoveries=%d retired=%d\n",
		s.BreakerTrips, s.Probes, s.ProbeRecoveries, s.Retired)
	fmt.Fprintf(&b, "repair: recovered=%d gaveUp=%d sensorFaultRounds=%d",
		s.Recovered, s.GaveUp, s.SensorFaultRounds)
	return b.String()
}
