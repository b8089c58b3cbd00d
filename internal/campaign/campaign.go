// Package campaign is the randomized fault-injection soak harness that
// proves the hardened runtime works. Each campaign seeds a timeline of
// multi-event damage — resistance drift spans, soft-error showers, stuck-at
// bursts, and transient sensor glitches that self-clear (including poisoned
// readouts: NaN confidences, wrong-shape tensors, panicking Infer
// callbacks) — runs health.Runtime's supervised detect→repair→verify loop
// against it round by round, and scores the outcome: missed detections,
// false alarms, status flaps on transients (against a shadow un-debounced
// tracker that demonstrably does flap), and repair-recovery rate.
package campaign

import (
	"context"
	"runtime"
	"sync"
	"time"

	"reramtest/internal/health"
	"reramtest/internal/monitor"
	"reramtest/internal/rng"
)

// EventKind is one class of injected field event.
type EventKind int

// Event kinds. The first three are persistent device damage (they last until
// a repair clears them); the glitch kinds are transient readout corruptions
// that self-clear after their window.
const (
	KindDrift EventKind = iota
	KindSoftShower
	KindStuckBurst
	KindGlitchNoise
	KindGlitchNaN
	KindGlitchShape
	KindGlitchPanic
)

// Transient reports whether the kind self-clears without repair.
func (k EventKind) Transient() bool { return k >= KindGlitchNoise }

// glitchMode maps a transient kind to its plant glitch mode.
func (k EventKind) glitchMode() GlitchMode {
	switch k {
	case KindGlitchNoise:
		return GlitchNoise
	case KindGlitchNaN:
		return GlitchNaN
	case KindGlitchShape:
		return GlitchShape
	default:
		return GlitchPanic
	}
}

// Event is one scheduled field event plus the ground truth and outcome the
// runner fills in.
type Event struct {
	Round int
	Kind  EventKind

	// parameters (by kind)
	Hours    float64 // KindDrift: simulated hours advanced at once
	P        float64 // KindSoftShower: fraction of cells disturbed
	P0, P1   float64 // KindStuckBurst: SA0/SA1 probabilities
	Duration int     // glitches: rounds the corruption lasts

	// ground truth + outcome (filled during Run)
	Severity      monitor.Status // shadow raw severity right after injection
	MaxConfirmed  monitor.Status // highest confirmed status while active
	DetectedAt    int            // round the runtime confirmed ≥ Degraded; 0 = never
	Recovered     bool           // a supervised repair episode verified clean
	GaveUp        bool           // the repair loop exhausted its budget
	FidelityAfter float64        // probe fidelity after recovery (-1 until then)
}

// Config parameterises one campaign run.
type Config struct {
	// Rounds is the soak length in monitoring rounds.
	Rounds int
	// Plant sizes the device-under-test.
	Plant PlantConfig
	// Health tunes the hardened runtime under test.
	Health health.Config
}

// EpisodeBudget is the repair allowance, in strategy cost units, of every
// episode a single-device runtime supervises (Run, cmd/monitor -cost): the
// length of the fixed escalation, so an episode may walk all of it.
const EpisodeBudget = 3

// RecoveryBand is the probe-fidelity loss a repaired device may carry: the
// campaign gate's "within 2% of commissioning", and the slack the lifetime
// soak allows the ladder's fidelity floor against the retrain-only control.
const RecoveryBand = 0.02

// DefaultConfig returns the gate-scale campaign: 40 rounds against the
// default plant with the default hardened runtime.
func DefaultConfig() Config {
	hcfg := health.DefaultConfig()
	hcfg.Sleep = func(d time.Duration) {} // simulated time: no real backoff waits
	// Debounce depth must exceed the longest transient the deployment expects,
	// or a transient lasting exactly EscalateAfter rounds flaps the confirmed
	// status. Timelines glitch for up to 2 rounds, so confirm on 3.
	hcfg.EscalateAfter = 3
	return Config{
		Rounds: 40,
		Plant:  DefaultPlantConfig(),
		Health: hcfg,
	}
}

// RoundRecord traces one monitoring round of a campaign.
type RoundRecord struct {
	Round       int
	Raw         monitor.Status // undebounced evidence (sensor-fault rounds report SensorFaultStatus)
	Confirmed   monitor.Status
	Changed     bool // confirmed status moved this round
	SensorFault bool
	Rejected    int // readout attempts rejected this round
	Repaired    bool
	Recovered   bool
	GaveUp      bool
}

// Result is one campaign's full trace plus ground truth.
type Result struct {
	Seed               int64
	Events             []Event
	Rounds             []RoundRecord
	CommissionFidelity float64
	RejectedReadouts   int
	RecoveredPanics    int
	EscalateAfter      int // copied from the runtime config for scoring windows
}

// RandomTimeline draws a randomized multi-event schedule: a drift span, a
// stuck-at burst, a flap-bait noise glitch and a poisoned-sensor glitch are
// always present (the gate exercises every subsystem every campaign); a soft
// shower and a second drift ride along randomly. Events are spaced so each
// repair episode settles before the next event lands.
func RandomTimeline(r *rng.RNG, rounds int) []Event {
	var events []Event
	next := 3 + r.Intn(3)
	gap := func() { next += 7 + r.Intn(4) }

	// flap bait first: short uniform-noise glitch on a healthy device
	events = append(events, Event{Round: next, Kind: KindGlitchNoise, Duration: 1 + r.Intn(1)})
	gap()

	// a drift span; magnitude spans Degraded..Critical territory
	events = append(events, Event{Round: next, Kind: KindDrift, Hours: 200 + 1200*r.Float64()})
	gap()

	// poisoned sensor: NaN, wrong shape, or panic for 1-2 rounds
	poison := []EventKind{KindGlitchNaN, KindGlitchShape, KindGlitchPanic}[r.Intn(3)]
	events = append(events, Event{Round: next, Kind: poison, Duration: 1 + r.Intn(2)})
	gap()

	// optional soft-error shower
	if r.Bernoulli(0.6) {
		events = append(events, Event{Round: next, Kind: KindSoftShower, P: 0.02 + 0.06*r.Float64()})
		gap()
	}

	// endurance stuck-at burst (the retraining path)
	events = append(events, Event{Round: next, Kind: KindStuckBurst,
		P0: 0.01 + 0.02*r.Float64(), P1: 0.005 + 0.01*r.Float64()})
	gap()

	// optional second drift span late in life
	if r.Bernoulli(0.5) {
		events = append(events, Event{Round: next, Kind: KindDrift, Hours: 150 + 800*r.Float64()})
	}

	out := events[:0]
	for _, e := range events {
		if e.Round < rounds-4 { // leave room to detect and repair
			out = append(out, e)
		}
	}
	return out
}

// Run executes one seeded campaign and returns its full trace.
func Run(seed int64, cfg Config) (Result, error) {
	plant := NewPlant("plant", seed, cfg.Plant)
	rt, err := health.New(monitor.New(plant.Reference(), plant.Patterns(), nil), cfg.Health)
	if err != nil {
		return Result{}, err
	}

	res := Result{Seed: seed, CommissionFidelity: plant.Fidelity(),
		EscalateAfter: cfg.Health.EscalateAfter}
	res.Events = RandomTimeline(rng.New(seed), cfg.Rounds)
	pending := res.Events
	var active []*Event // persistent events awaiting a verified repair

	infer := plant.Infer()
	for round := 1; round <= cfg.Rounds; round++ {
		plant.SetRound(round)
		for len(pending) > 0 && pending[0].Round == round {
			ev := &pending[0] // aliases res.Events' backing array
			pending = pending[1:]
			applyEvent(plant, *ev)
			ev.FidelityAfter = -1
			if !ev.Kind.Transient() {
				ev.Severity = plant.ShadowStatus()
				active = append(active, ev)
			}
		}

		ep := rt.Supervise(context.Background(), infer, plant, EpisodeBudget)

		rec := RoundRecord{
			Round:       round,
			Raw:         ep.Trigger.Raw,
			Confirmed:   ep.Trigger.Confirmed,
			Changed:     ep.Trigger.Changed,
			SensorFault: ep.Trigger.SensorFault,
			Rejected:    ep.Trigger.Rejected,
			Repaired:    ep.Repaired(),
			Recovered:   ep.Recovered,
			GaveUp:      ep.GaveUp,
		}
		res.Rounds = append(res.Rounds, rec)

		for _, ev := range active {
			if ep.Trigger.Confirmed > ev.MaxConfirmed {
				ev.MaxConfirmed = ep.Trigger.Confirmed
			}
			if ev.DetectedAt == 0 && ep.Trigger.Confirmed >= monitor.Degraded {
				ev.DetectedAt = round
			}
		}
		if ep.Repaired() {
			fid := plant.Fidelity()
			for _, ev := range active {
				ev.Recovered = ep.Recovered
				ev.GaveUp = ep.GaveUp
				ev.FidelityAfter = fid
			}
			if ep.Recovered {
				active = active[:0]
			}
		}
	}
	rej, pan := rt.RejectedReadouts()
	res.RejectedReadouts, res.RecoveredPanics = rej, pan
	return res, nil
}

// RunMany executes n seeded campaigns (seeds baseSeed, baseSeed+1, ...)
// across a bounded worker pool and returns their traces in seed order. Each
// campaign is seeded independently and plants never share mutable state
// (NewPlant clones the template model), so the parallel traces are
// bit-identical to a serial run.
func RunMany(baseSeed int64, n int, cfg Config) ([]Result, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	out := make([]Result, n)
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			out[i], errs[i] = Run(baseSeed+int64(i), cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
