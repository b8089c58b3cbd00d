// Repair rungs. The paper's severity-tiered repair story (§I: hardware
// redundancy, error correction, fault-aware remapping, cloud-edge
// retraining) is wider than retraining alone — each fault class has a
// cheaper, more targeted answer than full retraining, and a fleet that can
// only retrain burns its lifetime repair budget on drift that one scrub pass
// would have cleared.
//
// A Strategy is one such mechanism as a value: its name, its Cost in the
// fleet's repair-budget currency, When it treats the current Diagnosis, and
// the Apply that runs it against the hardware. The supervised runtime
// (internal/health) drives an ordered ladder of rungs — cheapest first,
// escalating on verification failure — and the fleet charges each device's
// lifetime budget by Cost instead of a flat per-attempt unit, so a device is
// retired only when the cheapest rung that could still help exceeds what
// remains. A decorator (a cost meter, a lock, a tighter gate) copies the
// rung and replaces its Apply or When.
//
// The strategy suite has three rungs, in escalation (= cost) order.
// Drop-connect hardening (DefaultHardenConfig, arXiv:2404.15498) is not one
// of them: it is commissioning-time fault-aware training, applied before
// faults arrive.
//
//   - soft-error scrub (NewScrub): sweep the arrays for cells whose
//     conductance left its tolerance band (drift, disturb flips) and rewrite
//     just those cells in place (arXiv:2412.03089's online correction).
//   - stuck-at remap (NewRemap): switch crossbar lines with too many stuck
//     cells onto spare word-lines, weight-correcting isolated stuck cells
//     through their differential partner when spares run out.
//   - fault-aware retraining (NewRetrain / RetrainAround): the expensive
//     cloud-edge path, the ladder's last software resort.
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

// Strategy is one rung of a repair ladder. Its Apply must be safe to call
// repeatedly (an escalation ladder may revisit a device every round) but is
// single-goroutine like the hardware it drives.
type Strategy struct {
	// Name identifies the rung in attempts, journals and scorecards.
	Name string
	// Cost is the repair-budget charge for one Apply, in the same units as
	// the fleet's lifetime RepairBudget. It is charged when Apply runs,
	// whether or not the repair verifies.
	Cost int
	// When reports whether the rung treats the diagnosed fault class. An
	// inapplicable rung is skipped by the ladder at zero cost.
	When func(Diagnosis) bool
	// Apply executes the repair against the hardware. A non-nil
	// Report.NewRef means the deployed reference weights changed and the
	// monitor must be recommissioned. Errors must be typed (see Error):
	// the lifetime soak gates on zero untyped errors escaping a rung.
	Apply func(ctx context.Context, d Diagnosis) (Report, error)
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

// Escalation renders the severity-planned fixed escalation (reprogram →
// retrain → replace) as a ladder of three cost-1 rungs over the device's
// three mechanisms. A damaged device's status selects where an episode
// starts: reprogram applies up to Degraded, retrain up to Impaired, replace
// to any damage, so an episode starts at the cheapest rung planned for the
// status and escalates one rung per failed verification — budget units and
// (apply, verify) cycles coincide. A non-nil network from a mechanism is
// handed back as Report.NewRef; an error outside the typed vocabulary is
// wrapped in *Error.
func Escalation(reprogram, retrain, replace func() (*nn.Network, error)) []Strategy {
	rung := func(name string, when func(s monitor.Status) bool, apply func() (*nn.Network, error)) Strategy {
		return Strategy{
			Name: name, Cost: 1,
			When: func(d Diagnosis) bool { return when(d.Status) },
			Apply: func(context.Context, Diagnosis) (Report, error) {
				ref, err := apply()
				if !IsTyped(err) {
					err = &Error{Strategy: name, Op: "apply", Err: err}
				}
				return Report{NewRef: ref}, err
			},
		}
	}
	return []Strategy{
		rung("reprogram", func(s monitor.Status) bool { return s > monitor.Healthy && s <= monitor.Degraded }, reprogram),
		rung("retrain", func(s monitor.Status) bool { return s > monitor.Healthy && s <= monitor.Impaired }, retrain),
		rung("replace", func(s monitor.Status) bool { return s > monitor.Healthy }, replace),
	}
}

// Scrubber is the hardware surface the soft-error scrub drives: sweep every
// healthy cell, rewrite the ones whose conductance left the tolerance band.
// *reram.Accelerator implements it.
type Scrubber interface {
	ScrubSoftErrors(tol float64) (scanned, rewritten int)
}

// NewScrub builds the soft-error scrub rung over hw: the online
// soft-error correction. tol is the conductance tolerance band as a
// fraction of the device's conductance window; cells outside it are
// rewritten in place. Applicable whenever the diagnosis reports drifted
// cells on a deployed device.
func NewScrub(hw Scrubber, tol float64) Strategy {
	return Strategy{
		Name: "scrub", Cost: CostScrub,
		When: func(d Diagnosis) bool { return d.Drifted > 0 },
		Apply: func(ctx context.Context, _ Diagnosis) (Report, error) {
			if err := ctx.Err(); err != nil {
				return Report{}, &Error{Strategy: "scrub", Op: "scrub", Err: err}
			}
			hw.ScrubSoftErrors(tol)
			return Report{}, nil
		},
	}
}

// Remapper is the hardware surface the stuck-at remap drives: move lines
// with too many stuck cells onto spares, weight-correct the rest through the
// differential partner. *reram.Accelerator implements it.
type Remapper interface {
	RemapStuck(maxPerLine int, tol float64) (remapped, corrected, uncorrectable int)
}

// NewRemap builds the redundant-line stuck-at remapping rung over hw. Lines
// holding more than maxPerLine stuck cells are switched onto spare
// word-lines; remaining stuck cells are corrected through their differential
// partner when the required conductance fits the window. tol is the
// residual weight-error band (fraction of the conductance window) below
// which a stuck cell counts as compensated. Applicable whenever the
// diagnosis reports uncompensated stuck cells.
func NewRemap(hw Remapper, maxPerLine int, tol float64) Strategy {
	return Strategy{
		Name: "remap", Cost: CostRemap,
		When: func(d Diagnosis) bool { return d.Stuck > 0 },
		Apply: func(ctx context.Context, _ Diagnosis) (Report, error) {
			if err := ctx.Err(); err != nil {
				return Report{}, &Error{Strategy: "remap", Op: "remap", Err: err}
			}
			hw.RemapStuck(maxPerLine, tol)
			return Report{}, nil
		},
	}
}

// NewRetrain builds the fault-aware retraining rung: diagnose stuck cells
// (tol as in DiagnoseStuck), fine-tune the readout weights around them on
// train, redeploy, and hand the new reference back for recommissioning.
// ref must return the current reference network; cfg is called per
// application so the caller can thread a fresh seed. Applicable on any
// deployed device — it is the ladder's last software resort.
func NewRetrain(accel Reprogrammer, ref func() *nn.Network, train *dataset.Dataset, tol float64, cfg func() models.TrainConfig) Strategy {
	return Strategy{
		Name: "retrain", Cost: CostRetrain,
		When: func(Diagnosis) bool { return true },
		Apply: func(ctx context.Context, _ Diagnosis) (Report, error) {
			stuck, err := DiagnoseStuck(accel, ref(), tol)
			if err != nil {
				return Report{}, &Error{Strategy: "retrain", Op: "diagnose", Err: err}
			}
			faulty := accel.ReadoutNetwork()
			if err := RetrainAround(ctx, faulty, stuck, train, cfg()); err != nil {
				// the retrained network was never deployed: the hardware
				// still runs the old reference, so a canceled retrain
				// leaves no half-repair
				return Report{}, err
			}
			accel.ProgramNetwork(faulty)
			return Report{NewRef: faulty}, nil
		},
	}
}
