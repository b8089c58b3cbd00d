// Fleet soak: the campaign harness scaled to the deployment the paper's
// economics assume — many accelerators aging independently under one
// supervisor, with live traffic routed around the damage. On top of the
// single-device event timelines this adds the failure modes only a fleet
// has: the supervisor process itself crashing mid-campaign (killed and
// replayed from its write-ahead journal, optionally with a torn/corrupt
// journal tail), and correlated multi-device fault showers (one cosmic-ray
// burst or voltage sag touching every device in a rack at once).
//
// The acceptance gate is resume fidelity: a campaign is run twice from the
// same seed — once uninterrupted, once with crash/restarts — and the
// replayed fleet must report byte-identical confirmed statuses, repair
// budgets, breaker positions and hysteresis streaks. Routing is gated by
// invariant: zero requests may ever land on a quarantined, retired or
// Impaired/Critical device, crashes or not.
package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/hwcost"
	"reramtest/internal/journal"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/testgen"
)

// fleetDevice adapts a campaign Plant to fleet.Device. The plant persists
// across supervisor crashes — it is the hardware.
type fleetDevice struct {
	id    string
	plant *Plant
}

func (d fleetDevice) ID() string                    { return d.id }
func (d fleetDevice) Infer() monitor.Infer          { return d.plant.Infer() }
func (d fleetDevice) Repairer() health.Repairer     { return d.plant }
func (d fleetDevice) Reference() *nn.Network        { return d.plant.Reference() }
func (d fleetDevice) Patterns() *testgen.PatternSet { return d.plant.Patterns() }

// CostCounter implements fleet.CostMetered: the supervisor journals the
// plant's cumulative per-class spend each tick and restores it on resume, so
// cost survives supervisor crashes the same way hysteresis state does.
func (d fleetDevice) CostCounter() *hwcost.Counter { return d.plant.CostCounter() }

// FleetSoakConfig parameterises one fleet campaign.
type FleetSoakConfig struct {
	// Devices is the fleet size; Rounds the soak length.
	Devices, Rounds int
	// Plant sizes each device-under-test (the workload model is shared and
	// trained once; device physics are seeded per device).
	Plant PlantConfig
	// Fleet tunes the supervisor under test.
	Fleet fleet.Config
	// RequestsPerRound is the synthetic traffic load the router must place.
	RequestsPerRound int
	// CrashAfter lists fleet rounds after which the supervisor is killed and
	// replayed from its journal.
	CrashAfter []int
	// CorruptTail appends garbage to the journal at every crash, simulating
	// a torn final write that the replay must truncate, not trust.
	CorruptTail bool
	// ShowerRound/ShowerP schedule a correlated soft-error shower hitting
	// every device at once (0 disables).
	ShowerRound int
	ShowerP     float64
}

// soakFleetConfig is the supervisor every fleet-backed soak starts from: the
// fleet defaults over the campaign's hardened runtime (simulated time and a
// flap-proof debounce).
func soakFleetConfig() fleet.Config {
	fcfg := fleet.DefaultConfig()
	fcfg.Health = DefaultConfig().Health
	return fcfg
}

// DefaultFleetSoakConfig returns the gate-scale fleet campaign: 4 devices,
// 40 rounds, two mid-campaign supervisor crashes with corrupt journal
// tails, and one correlated shower.
func DefaultFleetSoakConfig() FleetSoakConfig {
	fcfg := soakFleetConfig()
	fcfg.RepairBudget = 10
	return FleetSoakConfig{
		Devices: 4, Rounds: 40,
		Plant:            DefaultPlantConfig(),
		Fleet:            fcfg,
		RequestsPerRound: 32,
		CrashAfter:       []int{13, 27},
		CorruptTail:      true,
		ShowerRound:      21, ShowerP: 0.03,
	}
}

// FleetResult is one fleet campaign's trace.
type FleetResult struct {
	Seed    int64
	Devices []string
	// Confirmed is the per-round, per-device confirmed-status matrix.
	Confirmed [][]monitor.Status
	// FinalSnapshot is every device's durable state after the last round.
	FinalSnapshot map[string]fleet.DeviceSnapshot

	// crash/restart trace
	Replays          int
	TornCrashes      int // crashes where garbage was appended to the journal
	TruncatedBytes   int // journal bytes discarded across all replays
	StateDivergences int // replays whose reconstructed state differed from the crashed supervisor's

	// routing trace
	Routed, Sheds int
	Misroutes     int // requests landing on quarantined/retired/Impaired+ devices (gate: 0)

	// health trace
	BreakerTrips, Probes, ProbeRecoveries int
	SensorFaultRounds                     int
	Recovered, GaveUp, Retired            int

	// repair-economics trace (the lifetime soak's raw material)
	RepairCostSpent     int                // budget units charged across all devices
	UntypedRepairErrors int                // strategy errors violating the typed-error contract (gate: 0)
	FinalFidelity       map[string]float64 // per-device functional agreement after the last round
}

// RunFleet executes one seeded fleet campaign and returns its trace.
func RunFleet(seed int64, cfg FleetSoakConfig) (FleetResult, error) {
	if cfg.Devices < 1 {
		return FleetResult{}, fmt.Errorf("campaign: fleet needs ≥ 1 device, got %d", cfg.Devices)
	}
	if cfg.Rounds < 1 {
		return FleetResult{}, fmt.Errorf("campaign: fleet needs ≥ 1 round, got %d", cfg.Rounds)
	}

	plants, pending, devices, ids := buildFleetHardware(seed, cfg.Devices, cfg.Rounds, cfg.Plant)
	res := FleetResult{Seed: seed, Devices: ids}
	// deterministic extended sensor outage on device 0: long enough to trip
	// the breaker and cool down, short enough that the half-open probe finds
	// the sensor alive again — every campaign exercises quarantine AND
	// probe-recovery
	outage := Event{Round: cfg.Rounds / 2, Kind: KindGlitchPanic,
		Duration: cfg.Fleet.BreakerOpenAfter + cfg.Fleet.BreakerCooldown - 1}

	// a directory, not a file: the store keeps its snapshot family beside
	// the WAL
	dir, err := os.MkdirTemp("", "fleet-soak-*")
	if err != nil {
		return res, fmt.Errorf("campaign: fleet journal: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fleet.wal")
	st, _, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		return res, err
	}
	defer func() { st.Close() }()

	sup, err := fleet.New(devices, cfg.Fleet, st)
	if err != nil {
		return res, err
	}

	crashAfter := make(map[int]bool, len(cfg.CrashAfter))
	for _, round := range cfg.CrashAfter {
		crashAfter[round] = true
	}

	for round := 1; round <= cfg.Rounds; round++ {
		// inject this round's field events into the hardware
		applyRoundEvents(plants, pending, round)
		if round == outage.Round {
			applyEvent(plants[0], outage)
		}
		if cfg.ShowerRound > 0 && round == cfg.ShowerRound {
			// correlated shower: every device disturbed in the same round
			for _, p := range plants {
				p.Accelerator().InjectSoftErrors(cfg.ShowerP)
			}
		}

		results, err := sup.Tick()
		if err != nil {
			return res, fmt.Errorf("campaign: fleet round %d: %w", round, err)
		}
		row := make([]monitor.Status, len(results))
		for i, rr := range results {
			row[i] = rr.Confirmed
			if rr.SensorFault {
				res.SensorFaultRounds++
			}
			if rr.Tripped {
				res.BreakerTrips++
			}
			if rr.Probe {
				res.Probes++
				if rr.ProbeOK {
					res.ProbeRecoveries++
				}
			}
			if rr.Recovered {
				res.Recovered++
			}
			if rr.GaveUp {
				res.GaveUp++
			}
			res.RepairCostSpent += rr.CostSpent
		}
		res.Confirmed = append(res.Confirmed, row)

		// place this round's traffic and audit every placement
		quarantined := make(map[string]bool)
		for _, id := range sup.Quarantined() {
			quarantined[id] = true
		}
		var landed []string
		for q := 0; q < cfg.RequestsPerRound; q++ {
			id, ok := sup.Dispatch()
			if !ok {
				continue // shed, counted by the router
			}
			st, _ := sup.StatusOf(id)
			if quarantined[id] || st > monitor.Degraded {
				res.Misroutes++
			}
			landed = append(landed, id)
		}
		for _, id := range landed {
			sup.Complete(id)
		}

		// kill the supervisor process and replay its journal
		if crashAfter[round] {
			// the router's traffic counters die with the process — bank them
			routed, sheds := sup.Router().Stats()
			res.Routed += routed
			res.Sheds += sheds
			preCrash := sup.Snapshot()
			if err := st.Close(); err != nil {
				return res, err
			}
			if cfg.CorruptTail {
				res.TornCrashes++
				if err := appendGarbage(path); err != nil {
					return res, err
				}
			}
			var rec journal.Recovered
			st, rec, err = journal.OpenStore(path, journal.StoreConfig{})
			if err != nil {
				return res, fmt.Errorf("campaign: reopen journal after crash at round %d: %w", round, err)
			}
			res.TruncatedBytes += rec.Truncated
			sup, err = fleet.Resume(devices, cfg.Fleet, st, rec)
			if err != nil {
				return res, fmt.Errorf("campaign: resume after crash at round %d: %w", round, err)
			}
			res.Replays++
			if !reflect.DeepEqual(sup.Snapshot(), preCrash) {
				res.StateDivergences++
			}
		}
	}

	res.FinalSnapshot = sup.Snapshot()
	routed, sheds := sup.Router().Stats()
	res.Routed += routed
	res.Sheds += sheds
	for _, snap := range res.FinalSnapshot {
		if snap.Retired {
			res.Retired++
		}
	}
	res.FinalFidelity = make(map[string]float64, len(plants))
	for i, p := range plants {
		res.FinalFidelity[res.Devices[i]] = p.Fidelity()
		res.UntypedRepairErrors += p.UntypedRepairErrors()
	}
	return res, nil
}

// buildFleetHardware constructs the seeded plants, their event timelines and
// fleet.Device adapters in a FIXED RNG call order: one r.Int63() then one
// r.Split() per device. Every arm of a parity comparison (RunFleetPair,
// RunCrashSoak) builds its hardware through this helper, so the same seed
// always yields bit-identical accelerators and schedules.
func buildFleetHardware(seed int64, devices, rounds int, pcfg PlantConfig) ([]*Plant, [][]Event, []fleet.Device, []string) {
	r := rng.New(seed)
	plants := make([]*Plant, devices)
	pending := make([][]Event, devices)
	devs := make([]fleet.Device, devices)
	ids := make([]string, devices)
	for i := range plants {
		plants[i] = NewPlant(r.Int63(), pcfg)
		pending[i] = RandomTimeline(r.Split(), rounds)
		ids[i] = fmt.Sprintf("accel-%02d", i)
		devs[i] = fleetDevice{id: ids[i], plant: plants[i]}
	}
	return plants, pending, devs, ids
}

// applyRoundEvents advances every plant's scripted time to round and lands
// the timeline events due this round (consuming them from pending).
func applyRoundEvents(plants []*Plant, pending [][]Event, round int) {
	for i, p := range plants {
		p.SetRound(round)
		for len(pending[i]) > 0 && pending[i][0].Round == round {
			applyEvent(p, pending[i][0])
			pending[i] = pending[i][1:]
		}
	}
}

// applyEvent lands one scheduled event on a plant.
func applyEvent(p *Plant, ev Event) {
	switch ev.Kind {
	case KindDrift:
		p.Accelerator().AdvanceTime(ev.Hours)
	case KindSoftShower:
		p.Accelerator().InjectSoftErrors(ev.P)
	case KindStuckBurst:
		p.Accelerator().InjectStuckAt(ev.P0, ev.P1)
	default:
		p.StartGlitch(ev.Kind.glitchMode(), ev.Round, ev.Duration)
	}
}

// appendGarbage simulates a torn final write: raw non-record bytes (starting
// with a record magic to make it look like a real torn frame) after the last
// committed record.
func appendGarbage(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{0xA7, 0x40, 0x00, 0x00, 0x00, 0x13, 0x37, 0xde, 0xad, 0xbe, 0xef})
	return err
}

// FleetPairResult is one seed's crash-equivalence comparison: the same
// campaign run uninterrupted and with crash/restarts.
type FleetPairResult struct {
	Seed                   int64
	Uninterrupted, Crashed FleetResult
	StatusDivergences      int // (round, device) confirmed-status mismatches
	FinalStateDivergences  int // devices whose final durable state differs
	BudgetDivergences      int // devices whose remaining repair budget differs
}

// RunFleetPair runs the same seeded fleet campaign twice — once with the
// configured crash schedule, once uninterrupted — and counts divergence.
// Zero divergence is the PR's resume-fidelity acceptance criterion.
func RunFleetPair(seed int64, cfg FleetSoakConfig) (FleetPairResult, error) {
	clean := cfg
	clean.CrashAfter = nil
	clean.CorruptTail = false
	pair := FleetPairResult{Seed: seed}
	var err error
	if pair.Uninterrupted, err = RunFleet(seed, clean); err != nil {
		return pair, err
	}
	if pair.Crashed, err = RunFleet(seed, cfg); err != nil {
		return pair, err
	}

	a, b := pair.Uninterrupted, pair.Crashed
	for round := range a.Confirmed {
		for dev := range a.Confirmed[round] {
			if a.Confirmed[round][dev] != b.Confirmed[round][dev] {
				pair.StatusDivergences++
			}
		}
	}
	for _, id := range a.Devices {
		sa, sb := a.FinalSnapshot[id], b.FinalSnapshot[id]
		if sa.Budget != sb.Budget {
			pair.BudgetDivergences++
		}
		if !reflect.DeepEqual(sa, sb) {
			pair.FinalStateDivergences++
		}
	}
	return pair, nil
}
