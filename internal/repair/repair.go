// Package repair implements the repair mechanisms the paper's monitor exists
// to dispatch (§I: "various repair mechanisms, including hardware redundancy,
// error correction, fault-aware remapping and cloud-edge collaborative model
// retraining ... are tailored for different stages based on the severity of
// the fault model"). Together with internal/monitor it closes the loop:
// detect → classify severity → apply the cheapest adequate repair → verify.
//
// Every mechanism is a rung: a Strategy value with a name, a budget cost, an
// applicability test on the Diagnosis and an Apply. The supervised runtime
// (internal/health) walks a ladder of rungs, cheapest first. Two ladders
// exist:
//
//   - the fixed escalation (Escalation), planned by severity: reprogram
//     (rewrite every conductance; clears drift, not stuck cells), retrain
//     (DiagnoseStuck, then fault-aware fine-tuning around the frozen stuck
//     cells, the paper's reference [8]) and replace (module replacement,
//     the paper's hardware-service path);
//   - the strategy suite (strategy.go): soft-error scrub, stuck-at remap
//     onto spare lines, and fault-aware retraining as the last resort.
package repair

import (
	"reramtest/internal/hwcost"
	"reramtest/internal/nn"
)

// StuckMask records, per network parameter, which weight positions sit on
// stuck cells (true = stuck, must not be trained or trusted).
type StuckMask map[string][]bool

// Reprogrammer is the hardware surface diagnosis and retraining drive:
// rewrite every cell to its target, read the weights the arrays actually
// hold, and program a new network onto them. *reram.Accelerator implements
// it.
type Reprogrammer interface {
	Reprogram()
	ReadoutNetwork() *nn.Network
	ProgramNetwork(net *nn.Network)
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
func DiagnoseStuck(accel Reprogrammer, target *nn.Network, tol float64) (StuckMask, error) {
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

// Report is what one rung's application hands back to the repair loop.
type Report struct {
	// NewRef, when non-nil, is a replacement reference network (fault-aware
	// retraining deployed new weights): the monitor must be recommissioned
	// against it before the repair can verify.
	NewRef *nn.Network
	// Measured is the hardware spend the application charged, booked to the
	// repair class by the station that ran it under its lock (zero off a
	// station or on an unmetered device). Set even when the application
	// errors.
	Measured hwcost.Cost
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
