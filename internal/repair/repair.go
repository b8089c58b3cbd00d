// Package repair implements the repair mechanisms the paper's monitor exists
// to dispatch (§I: "various repair mechanisms, including hardware redundancy,
// error correction, fault-aware remapping and cloud-edge collaborative model
// retraining ... are tailored for different stages based on the severity of
// the fault model"). Together with internal/monitor it closes the loop:
// detect → classify severity → apply the cheapest adequate repair → verify.
//
// Three mechanisms are provided, in increasing cost order:
//
//   - Reprogram: rewrite all crossbar conductances to their targets. Fixes
//     drift and accumulated soft errors; cannot fix stuck cells. Cost: one
//     write pass, no data needed.
//   - Retrain: diagnose stuck cells (DiagnoseStuck), then fault-aware
//     fine-tuning (the paper's reference [8]) — gradient descent on the
//     deployed weights with the stuck cells frozen at their fault values,
//     letting the healthy weights compensate. Cost: training data and
//     compute (the paper's "cloud-edge collaborative" path).
//   - Replace: when retraining cannot recover the accuracy target the
//     planner recommends hardware service — spare-array remapping (the
//     paper's reference [7]) or module replacement; physical spare-row
//     redundancy is modelled as a recommendation only.
package repair

import (
	"fmt"
	"strings"

	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
)

// Action identifies one repair mechanism.
type Action int

// Repair actions in increasing cost order.
const (
	// NoAction: the accelerator is healthy.
	NoAction Action = iota
	// Reprogram rewrites crossbar conductances (fixes drift/soft errors).
	Reprogram
	// Retrain fine-tunes healthy weights around frozen faults.
	Retrain
	// Replace recommends hardware service: spare-array remapping or module
	// replacement, beyond what software repair can recover.
	Replace
)

// String names the action.
func (a Action) String() string {
	switch a {
	case NoAction:
		return "none"
	case Reprogram:
		return "reprogram"
	case Retrain:
		return "retrain"
	case Replace:
		return "replace"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// PlanFor maps the monitor's health classification to the cheapest repair
// that addresses it, following the paper's severity-tiered repair story:
// mild degradation is usually drift (reprogrammable); an impaired device
// has accumulated hard faults that need the cloud-edge retraining path; a
// critical one is past software repair.
func PlanFor(status monitor.Status) Action {
	switch status {
	case monitor.Healthy:
		return NoAction
	case monitor.Degraded:
		return Reprogram
	case monitor.Impaired:
		return Retrain
	default:
		return Replace
	}
}

// StuckMask records, per network parameter, which weight positions sit on
// stuck cells (true = stuck, must not be trained or trusted).
type StuckMask map[string][]bool

// Count returns the number of stuck positions across all parameters.
func (m StuckMask) Count() int {
	n := 0
	for _, mask := range m {
		for _, s := range mask {
			if s {
				n++
			}
		}
	}
	return n
}

// DiagnoseStuck identifies stuck weight positions on an accelerator by a
// write-read-write test: reprogram the arrays, read the effective weights,
// then compare against a second readout after reprogramming again. Cells
// that refuse to track their target on both writes are reported stuck. This
// is the classic march-style test specialised to the differential weight
// mapping: healthy cells land within tol of the target each time; stuck
// cells sit pinned at an extreme.
//
// The accelerator is left reprogrammed (a side effect the caller wants
// anyway, since diagnosis is always followed by a repair attempt).
//
// A non-positive tol or a degenerate target parameter (empty, or all-zero
// so the stuck threshold collapses to 0 and every cell would read stuck)
// returns a *DiagnosisError before touching the hardware — silently
// producing a garbage mask used to feed those inputs straight into
// retraining.
func DiagnoseStuck(accel *reram.Accelerator, target *nn.Network, tol float64) (StuckMask, error) {
	if tol <= 0 {
		return nil, &DiagnosisError{Reason: "tolerance", Tol: tol}
	}
	for _, p := range target.Params() {
		// only rank-2 weight matrices live on crossbars; biases stay in
		// digital logic, read back exactly, and are legitimately all-zero
		// at initialisation
		if p.Value.Rank() != 2 {
			continue
		}
		degenerate := true
		for _, v := range p.Value.Data() {
			if v != 0 {
				degenerate = false
				break
			}
		}
		if degenerate {
			return nil, &DiagnosisError{Reason: "degenerate", Param: p.Name}
		}
	}
	accel.Reprogram()
	first := accel.ReadoutNetwork()
	accel.Reprogram()
	second := accel.ReadoutNetwork()

	mask := make(StuckMask)
	tp, fp, sp := target.Params(), first.Params(), second.Params()
	for i, p := range tp {
		want := p.Value.Data()
		got1 := fp[i].Value.Data()
		got2 := sp[i].Value.Data()
		// threshold scales with the layer's weight range: a cell is stuck
		// when it misses its target by more than tol × max|w| on both
		// writes — SA1 cells sit a full conductance window away, SA0 cells
		// miss by the weight's own magnitude
		maxAbs := 0.0
		for _, v := range want {
			if a := abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		thresh := tol * maxAbs
		m := make([]bool, len(want))
		for j := range want {
			m[j] = abs(got1[j]-want[j]) > thresh && abs(got2[j]-want[j]) > thresh
		}
		mask[p.Name] = m
	}
	return mask, nil
}

// Report summarises one repair round.
type Report struct {
	Action    Action
	Strategy  string  // strategy name when produced by a Strategy; "" otherwise
	Stuck     int     // stuck cells diagnosed (Remap/Retrain)
	Cells     int     // cells rewritten / lines remapped (strategy repairs)
	AccBefore float64 // accuracy before repair (if measured; -1 otherwise)
	AccAfter  float64 // accuracy after repair (if measured; -1 otherwise)
	// NewRef, when non-nil, is a replacement reference network (fault-aware
	// retraining deployed new weights): the monitor must be recommissioned
	// against it before the repair can verify.
	NewRef *nn.Network
	Detail string
	// Measured is the hardware spend the application charged, booked to the
	// repair class by the station that ran it under its lock (zero off a
	// station or on an unmetered device). Set even when the application
	// errors.
	Measured reram.Cost
}

// String renders the report on one line.
func (r Report) String() string {
	parts := []string{fmt.Sprintf("action=%s", r.Action)}
	if r.Strategy != "" {
		parts = append(parts, fmt.Sprintf("strategy=%s", r.Strategy))
	}
	if r.Stuck > 0 {
		parts = append(parts, fmt.Sprintf("stuck=%d", r.Stuck))
	}
	if r.AccBefore >= 0 && r.AccAfter >= 0 {
		parts = append(parts, fmt.Sprintf("accuracy %.1f%%→%.1f%%", 100*r.AccBefore, 100*r.AccAfter))
	}
	if r.Detail != "" {
		parts = append(parts, r.Detail)
	}
	return strings.Join(parts, " ")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
