// Pluggable repair strategies. The paper's severity-tiered repair story
// (§I: hardware redundancy, error correction, fault-aware remapping,
// cloud-edge retraining) is wider than the single RetrainAround this package
// started with — each fault class has a cheaper, more targeted answer than
// full retraining, and a fleet that can only retrain burns its lifetime
// repair budget on drift that one scrub pass would have cleared.
//
// A Strategy is one such mechanism behind a common interface: it names
// itself, says whether the current Diagnosis is the fault class it treats,
// quotes its Cost in the fleet's repair-budget currency, and Applies itself
// against the hardware. The supervised runtime (internal/health) drives an
// ordered ladder of strategies — cheapest first, escalating on verification
// failure — and the fleet charges each device's lifetime budget by Cost()
// instead of a flat per-attempt unit, so a device is retired only when the
// cheapest strategy that could still help exceeds what remains.
//
// Three strategies exist, in escalation (= cost) order. Drop-connect
// hardening (HardenDropConnect, arXiv:2404.15498) is not one of them: it is
// commissioning-time fault-aware training, applied before faults arrive.
//
//   - soft-error scrub (NewScrub): sweep the arrays for cells whose
//     conductance left its tolerance band (drift, disturb flips) and rewrite
//     just those cells in place (arXiv:2412.03089's online correction).
//   - stuck-at remap (NewRemap): switch crossbar lines with too many stuck
//     cells onto spare word-lines, weight-correcting isolated stuck cells
//     through their differential partner when spares run out.
//   - fault-aware retraining (NewRetrain / RetrainAround): the expensive
//     cloud-edge path, unchanged in mechanics but now the ladder's last
//     software resort instead of its only move.
package repair

import (
	"context"
	"errors"
	"fmt"

	"reramtest/internal/dataset"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
)

// Strategy costs in the fleet's repair-budget currency. One unit is "one
// array write pass worth of disturbance": a scrub rewrites only out-of-band
// cells, a remap additionally burns spare lines and recalibrates ADCs, a
// retraining round costs data movement and training compute on top of a full
// redeploy (the paper's cloud-edge collaborative path).
const (
	CostScrub   = 1
	CostRemap   = 2
	CostRetrain = 4
)

// Diagnosis is what the supervised runtime knows about a device when it
// must pick a repair: the debounced severity plus the cheap hardware census
// the strategies key their applicability on.
type Diagnosis struct {
	// Status is the runtime's confirmed severity.
	Status monitor.Status
	// Drifted counts healthy cells whose conductance sits outside the scrub
	// tolerance band — the soft-error/drift population a scrub rewrites.
	Drifted int
	// Stuck counts stuck cells whose induced weight error is still
	// uncompensated (neither remapped to a spare line nor corrected through
	// the differential partner).
	Stuck int
	// Spares is the number of spare crossbar lines still available.
	Spares int
}

// String renders the diagnosis on one line.
func (d Diagnosis) String() string {
	return fmt.Sprintf("status=%s drifted=%d stuck=%d spares=%d", d.Status, d.Drifted, d.Stuck, d.Spares)
}

// Strategy is one pluggable repair mechanism. Implementations must be safe
// to call repeatedly (an escalation ladder may revisit a device every round)
// but are single-goroutine objects like the hardware they drive.
type Strategy interface {
	// Name identifies the strategy in attempts, journals and scorecards.
	Name() string
	// Applicable reports whether this strategy treats the diagnosed fault
	// class. An inapplicable strategy is skipped by the ladder at zero cost.
	Applicable(d Diagnosis) bool
	// Cost is the repair-budget charge for one Apply, in the same units as
	// the fleet's lifetime RepairBudget. It is charged when Apply runs,
	// whether or not the repair verifies.
	Cost() int
	// Apply executes the repair against the hardware. A non-nil
	// Report.NewRef means the deployed reference weights changed and the
	// monitor must be recommissioned. Errors must be typed (see Error):
	// the lifetime soak gates on zero untyped errors escaping a strategy.
	Apply(ctx context.Context, d Diagnosis) (Report, error)
}

// Error is the typed failure every strategy wraps its errors in: which
// strategy, which operation, and the underlying cause. errors.Is/As unwrap
// to the cause, so context cancellation stays detectable through the wrap.
type Error struct {
	Strategy string // strategy (or diagnostic) name
	Op       string // operation that failed ("diagnose", "train", "deploy", ...)
	Err      error
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("repair: %s %s: %v", e.Strategy, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// DiagnosisError is the typed rejection DiagnoseStuck returns for inputs it
// cannot diagnose: a non-positive tolerance or a degenerate (empty or
// all-zero) parameter whose stuck threshold would be meaningless. The old
// behaviour — silently returning a mask that was empty or marked every cell
// stuck — fed garbage straight into retraining.
type DiagnosisError struct {
	Reason string  // "tolerance" or "degenerate"
	Param  string  // offending parameter name (degenerate layers)
	Tol    float64 // offending tolerance (tolerance errors)
}

// Error implements error.
func (e *DiagnosisError) Error() string {
	switch e.Reason {
	case "tolerance":
		return fmt.Sprintf("repair: diagnose: tolerance must be > 0, got %g", e.Tol)
	case "degenerate":
		return fmt.Sprintf("repair: diagnose: parameter %q is degenerate (empty or all-zero), stuck threshold undefined", e.Param)
	default:
		return fmt.Sprintf("repair: diagnose: %s", e.Reason)
	}
}

// IsTyped reports whether err belongs to the repair subsystem's typed error
// vocabulary: a strategy *Error, a *DiagnosisError, or a context
// cancellation/deadline (the caller-initiated aborts). The lifetime soak's
// zero-untyped-errors gate counts everything else as a contract violation.
func IsTyped(err error) bool {
	if err == nil {
		return true
	}
	var se *Error
	var de *DiagnosisError
	return errors.As(err, &se) || errors.As(err, &de) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Report fields specific to the strategy suite are on the shared Report
// type (repair.go): Strategy, Cells and NewRef.

// Func adapts closures to the Strategy interface — the device adapters
// (campaign plants, example rigs) use it to bind device-specific state (RNG
// streams, datasets, reference-model slots) into a strategy without a new
// type each time.
type Func struct {
	StrategyName string
	StrategyCost int
	When         func(Diagnosis) bool
	Do           func(ctx context.Context, d Diagnosis) (Report, error)
}

// Name implements Strategy.
func (f Func) Name() string { return f.StrategyName }

// Applicable implements Strategy.
func (f Func) Applicable(d Diagnosis) bool { return f.When != nil && f.When(d) }

// Cost implements Strategy.
func (f Func) Cost() int { return f.StrategyCost }

// Apply implements Strategy.
func (f Func) Apply(ctx context.Context, d Diagnosis) (Report, error) { return f.Do(ctx, d) }

// Escalation renders the severity-planned fixed escalation (reprogram →
// retrain → replace) as a ladder: three cost-1 rungs named Action.String()
// over one apply function, for devices whose repair mechanism is a switch
// on Action rather than a suite of Strategy types. A rung applies when the
// plan for the diagnosed status (PlanFor) is at or below it, so an episode
// starts at the planned action and escalates one action per failed
// verification — budget units and (apply, verify) cycles coincide. A
// non-nil network from apply is handed back as Report.NewRef; an error
// outside the typed vocabulary is wrapped in *Error.
func Escalation(apply func(Action) (*nn.Network, error)) []Strategy {
	rungs := make([]Strategy, 0, 3)
	for a := Reprogram; a <= Replace; a++ {
		rungs = append(rungs, Func{
			StrategyName: a.String(), StrategyCost: 1,
			When: func(d Diagnosis) bool {
				plan := PlanFor(d.Status)
				return plan != NoAction && plan <= a
			},
			Do: func(context.Context, Diagnosis) (Report, error) {
				ref, err := apply(a)
				if !IsTyped(err) {
					err = &Error{Strategy: a.String(), Op: "apply", Err: err}
				}
				return Report{Action: a, Strategy: a.String(), NewRef: ref, AccBefore: -1, AccAfter: -1}, err
			},
		})
	}
	return rungs
}

// Scrubber is the hardware surface the soft-error scrub drives: sweep every
// healthy cell, rewrite the ones whose conductance left the tolerance band.
// *reram.Accelerator implements it.
type Scrubber interface {
	ScrubSoftErrors(tol float64) (scanned, rewritten int)
}

// scrub is the online soft-error correction strategy.
type scrub struct {
	hw  Scrubber
	tol float64
}

// NewScrub builds the soft-error scrub strategy over hw. tol is the
// conductance tolerance band as a fraction of the device's conductance
// window; cells outside it are rewritten in place. Applicable whenever the
// diagnosis reports drifted cells on a deployed device.
func NewScrub(hw Scrubber, tol float64) Strategy { return &scrub{hw: hw, tol: tol} }

func (s *scrub) Name() string { return "scrub" }
func (s *scrub) Cost() int    { return CostScrub }

func (s *scrub) Applicable(d Diagnosis) bool {
	return d.Drifted > 0
}

func (s *scrub) Apply(ctx context.Context, _ Diagnosis) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, &Error{Strategy: s.Name(), Op: "scrub", Err: err}
	}
	scanned, rewritten := s.hw.ScrubSoftErrors(s.tol)
	return Report{
		Action: Reprogram, Strategy: s.Name(), Cells: rewritten,
		AccBefore: -1, AccAfter: -1,
		Detail: fmt.Sprintf("scrubbed %d/%d cells", rewritten, scanned),
	}, nil
}

// Remapper is the hardware surface the stuck-at remap drives: move lines
// with too many stuck cells onto spares, weight-correct the rest through the
// differential partner. *reram.Accelerator implements it.
type Remapper interface {
	RemapStuck(maxPerLine int, tol float64) (remapped, corrected, uncorrectable int)
}

// remap is the redundant-line stuck-at remapping strategy.
type remap struct {
	hw         Remapper
	maxPerLine int
	tol        float64
}

// NewRemap builds the stuck-at remapping strategy over hw. Lines holding
// more than maxPerLine stuck cells are switched onto spare word-lines;
// remaining stuck cells are corrected through their differential partner
// when the required conductance fits the window. tol is the residual
// weight-error band (fraction of the conductance window) below which a
// stuck cell counts as compensated. Applicable whenever the diagnosis
// reports uncompensated stuck cells.
func NewRemap(hw Remapper, maxPerLine int, tol float64) Strategy {
	return &remap{hw: hw, maxPerLine: maxPerLine, tol: tol}
}

func (s *remap) Name() string { return "remap" }
func (s *remap) Cost() int    { return CostRemap }

func (s *remap) Applicable(d Diagnosis) bool {
	return d.Stuck > 0
}

func (s *remap) Apply(ctx context.Context, _ Diagnosis) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, &Error{Strategy: s.Name(), Op: "remap", Err: err}
	}
	remapped, corrected, uncorrectable := s.hw.RemapStuck(s.maxPerLine, s.tol)
	return Report{
		Action: Replace, Strategy: s.Name(), Cells: remapped + corrected,
		AccBefore: -1, AccAfter: -1,
		Detail: fmt.Sprintf("remapped %d lines, corrected %d cells, %d uncorrectable", remapped, corrected, uncorrectable),
	}, nil
}

// retrainStrategy is fault-aware retraining as a ladder rung.
type retrainStrategy struct {
	accel       Reprogrammer
	ref         func() *nn.Network // current reference weights
	train, eval *dataset.Dataset
	tol         float64                   // DiagnoseStuck tolerance
	cfg         func() models.TrainConfig // per-application config (fresh seed each round)
}

// NewRetrain builds the fault-aware retraining strategy: diagnose stuck
// cells (tol as in DiagnoseStuck), fine-tune the readout weights around them
// on train, redeploy, and hand the new reference back for recommissioning.
// ref must return the current reference network; cfg is called per
// application so the caller can thread a fresh seed. Applicable on any
// deployed device — it is the ladder's last software resort.
func NewRetrain(accel Reprogrammer, ref func() *nn.Network, train, eval *dataset.Dataset, tol float64, cfg func() models.TrainConfig) Strategy {
	return &retrainStrategy{accel: accel, ref: ref, train: train, eval: eval, tol: tol, cfg: cfg}
}

func (s *retrainStrategy) Name() string { return "retrain" }
func (s *retrainStrategy) Cost() int    { return CostRetrain }

func (s *retrainStrategy) Applicable(Diagnosis) bool { return true }

func (s *retrainStrategy) Apply(ctx context.Context, _ Diagnosis) (Report, error) {
	stuck, err := DiagnoseStuck(s.accel, s.ref(), s.tol)
	if err != nil {
		return Report{}, &Error{Strategy: s.Name(), Op: "diagnose", Err: err}
	}
	faulty := s.accel.ReadoutNetwork()
	acc, err := RetrainAround(ctx, faulty, stuck, s.train, s.eval, s.cfg())
	if err != nil {
		// the retrained network was never deployed: the hardware still runs
		// the old reference, so a canceled retrain leaves no half-repair
		return Report{}, err
	}
	s.accel.ProgramNetwork(faulty)
	return Report{
		Action: Retrain, Strategy: s.Name(), Stuck: stuck.Count(), NewRef: faulty,
		AccBefore: -1, AccAfter: acc,
		Detail: fmt.Sprintf("retrained around %d stuck cells", stuck.Count()),
	}, nil
}
