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
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"

	"reramtest/internal/fleet"
	"reramtest/internal/journal"
	"reramtest/internal/monitor"
	"reramtest/internal/rng"
)

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

	// a directory, not a file: the store keeps its snapshot family beside
	// the WAL
	dir, err := os.MkdirTemp("", "fleet-soak-*")
	if err != nil {
		return FleetResult{}, fmt.Errorf("campaign: fleet journal: %w", err)
	}
	defer os.RemoveAll(dir)
	g, err := newRig(seed, cfg.Devices, cfg.Rounds, cfg.Plant, cfg.Fleet, dir, journal.StoreConfig{})
	if err != nil {
		return FleetResult{}, err
	}
	defer g.close()
	res := FleetResult{Seed: seed}
	for _, p := range g.plants {
		res.Devices = append(res.Devices, p.ID())
	}
	// deterministic extended sensor outage on device 0: long enough to trip
	// the breaker and cool down, short enough that the half-open probe finds
	// the sensor alive again — every campaign exercises quarantine AND
	// probe-recovery
	outage := Event{Round: cfg.Rounds / 2, Kind: KindGlitchPanic,
		Duration: cfg.Fleet.BreakerOpenAfter + cfg.Fleet.BreakerCooldown - 1}
	for round := 1; round <= cfg.Rounds; round++ {
		results, err := g.step(round, func() {
			if round == outage.Round {
				applyEvent(g.plants[0], outage)
			}
			if cfg.ShowerRound > 0 && round == cfg.ShowerRound {
				// correlated shower: every device disturbed in the same round
				for _, p := range g.plants {
					p.Accelerator().InjectSoftErrors(cfg.ShowerP)
				}
			}
		})
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
		quarantined := g.sup.Quarantined()
		var landed []string
		for q := 0; q < cfg.RequestsPerRound; q++ {
			id, _, err := g.sup.DispatchAvoidingErr("")
			if err != nil {
				continue // shed, counted by the router
			}
			st, _ := g.sup.StatusOf(id)
			if slices.Contains(quarantined, id) || st > monitor.Degraded {
				res.Misroutes++
			}
			landed = append(landed, id)
		}
		for _, id := range landed {
			g.sup.Complete(id)
		}

		// kill the supervisor process and replay its journal
		if slices.Contains(cfg.CrashAfter, round) {
			// the router's traffic counters die with the process — bank them
			routed, sheds := g.sup.Router().Stats()
			res.Routed += routed
			res.Sheds += sheds
			preCrash := g.sup.Snapshot()
			var damage func(path string) error
			if cfg.CorruptTail {
				res.TornCrashes++
				damage = appendGarbage
			}
			rec, err := g.restart(damage)
			if err != nil {
				return res, fmt.Errorf("campaign: crash at round %d: %w", round, err)
			}
			res.TruncatedBytes += rec.Truncated
			res.Replays++
			if !reflect.DeepEqual(g.sup.Snapshot(), preCrash) {
				res.StateDivergences++
			}
		}
	}

	res.FinalSnapshot = g.sup.Snapshot()
	routed, sheds := g.sup.Router().Stats()
	res.Routed += routed
	res.Sheds += sheds
	for _, snap := range res.FinalSnapshot {
		if snap.Retired {
			res.Retired++
		}
	}
	res.FinalFidelity = make(map[string]float64, len(g.plants))
	for _, p := range g.plants {
		res.FinalFidelity[p.ID()] = p.Fidelity()
		res.UntypedRepairErrors += p.UntypedRepairErrors()
	}
	return res, nil
}

// rig is one fleet-backed soak arm: the seeded plants, their pending event
// timelines, the plants as fleet devices, and the supervisor journaling to a
// store. The plants outlive supervisor crashes; restart replaces the store
// and the supervisor.
type rig struct {
	plants  []*Plant
	pending [][]Event
	devices []fleet.Device
	st      *journal.Store
	sup     *fleet.Supervisor

	fcfg fleet.Config
	scfg journal.StoreConfig
	path string
}

// newRig builds the hardware in a FIXED RNG call order, one r.Int63() then
// one r.Split() per device, so every arm of a parity comparison (the fleet
// pair, the lifetime arms, the crash baseline and cells) gets bit-identical
// accelerators and schedules from the same seed. It then opens dir/fleet.wal
// and commissions the supervisor over it.
func newRig(seed int64, devices, rounds int, pcfg PlantConfig, fcfg fleet.Config, dir string, scfg journal.StoreConfig) (*rig, error) {
	r := rng.New(seed)
	g := &rig{fcfg: fcfg, scfg: scfg, path: filepath.Join(dir, "fleet.wal")}
	for i := 0; i < devices; i++ {
		p := NewPlant(fmt.Sprintf("accel-%02d", i), r.Int63(), pcfg)
		g.plants = append(g.plants, p)
		g.pending = append(g.pending, RandomTimeline(r.Split(), rounds))
		g.devices = append(g.devices, p)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if g.st, _, err = journal.OpenStore(g.path, scfg); err != nil {
		return nil, err
	}
	if g.sup, err = fleet.New(g.devices, fcfg, g.st); err != nil {
		g.st.Close()
		return nil, fmt.Errorf("commission: %w", err)
	}
	return g, nil
}

// step runs one round: it advances every plant's scripted time to round,
// lands the timeline events due this round (consuming them from pending),
// runs extra (nil for none: the caller's own events for the round) and ticks
// the supervisor.
func (g *rig) step(round int, extra func()) ([]fleet.RoundResult, error) {
	for i, p := range g.plants {
		p.SetRound(round)
		for len(g.pending[i]) > 0 && g.pending[i][0].Round == round {
			applyEvent(p, g.pending[i][0])
			g.pending[i] = g.pending[i][1:]
		}
	}
	if extra != nil {
		extra()
	}
	return g.sup.Tick(context.Background())
}

// restart kills the supervisor process: it closes the store, runs damage
// (nil for none) on the dead WAL, reopens the store and resumes a supervisor
// from what the disk holds. A store that is already poisoned has nothing to
// save, so only a healthy store's Close error is reported.
func (g *rig) restart(damage func(path string) error) (journal.Recovered, error) {
	healthy := g.st.Err() == nil
	if err := g.st.Close(); err != nil && healthy {
		return journal.Recovered{}, err
	}
	if damage != nil {
		if err := damage(g.path); err != nil {
			return journal.Recovered{}, err
		}
	}
	st, rec, err := journal.OpenStore(g.path, g.scfg)
	if err != nil {
		return rec, fmt.Errorf("reopen journal: %w", err)
	}
	g.st = st
	if g.sup, err = fleet.Resume(g.devices, g.fcfg, st, rec); err != nil {
		return rec, fmt.Errorf("resume: %w", err)
	}
	return rec, nil
}

// close closes the current store (a no-op when it is already closed).
func (g *rig) close() { g.st.Close() }

// inService reports whether a device's durable state lets the router
// dispatch to it: not retired, breaker closed and confirmed at worst
// Degraded. A quarantined wreck a soak arm kept limping receives no
// traffic, so it is not part of the service the fleet delivers.
func inService(s fleet.DeviceSnapshot) bool {
	return !s.Retired && s.Breaker.State == fleet.BreakerClosed && s.State.Confirmed <= monitor.Degraded
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
}

// divergences compares the two runs: (round, device) confirmed-status
// mismatches, devices whose final durable state differs, and devices whose
// remaining repair budget differs. Zero everywhere is resume fidelity.
func (p FleetPairResult) divergences() (status, final, budget int) {
	a, b := p.Uninterrupted, p.Crashed
	for round := range a.Confirmed {
		for dev := range a.Confirmed[round] {
			if a.Confirmed[round][dev] != b.Confirmed[round][dev] {
				status++
			}
		}
	}
	for _, id := range a.Devices {
		sa, sb := a.FinalSnapshot[id], b.FinalSnapshot[id]
		if sa.Budget != sb.Budget {
			budget++
		}
		if !reflect.DeepEqual(sa, sb) {
			final++
		}
	}
	return status, final, budget
}

// RunFleetPair runs the same seeded fleet campaign twice — once with the
// configured crash schedule, once uninterrupted.
func RunFleetPair(seed int64, cfg FleetSoakConfig) (FleetPairResult, error) {
	clean := cfg
	clean.CrashAfter = nil
	clean.CorruptTail = false
	pair := FleetPairResult{Seed: seed}
	var err error
	if pair.Uninterrupted, err = RunFleet(seed, clean); err != nil {
		return pair, err
	}
	pair.Crashed, err = RunFleet(seed, cfg)
	return pair, err
}
