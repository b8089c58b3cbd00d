// Supervised repair: the closed loop the paper motivates, hardened. A
// confirmed degradation walks the device's repair ladder (see Supervise):
// apply the cheapest applicable rung, *verify* recovery with fresh
// concurrent-test rounds, escalate on failure, and — when the ladder or the
// budget runs out — give up gracefully with a hardware-service
// recommendation instead of looping forever or declaring victory open-loop.
package health

import (
	"context"
	"fmt"
	"strings"

	"reramtest/internal/hwcost"
	"reramtest/internal/monitor"
	"reramtest/internal/repair"
	"reramtest/internal/tensor"
)

// Repairer is a device's repair ladder: the mechanisms that can be applied
// to the physical accelerator and the census they gate on.
type Repairer interface {
	// Strategies returns the ladder in escalation order (cheapest first).
	// The slice must be stable across calls within an episode.
	Strategies() []repair.Strategy
	// Diagnose inspects the hardware and summarises what is wrong, given the
	// currently confirmed status; strategies gate their Applicable on it.
	Diagnose(confirmed monitor.Status) repair.Diagnosis
}

// Attempt records one (apply, verify) cycle of a repair episode.
type Attempt struct {
	Strategy       string  // the rung's Name()
	Cost           int     // budget units charged: the rung's Cost()
	ApplyErr       error   // the application itself failed (episode escalates)
	Verified       bool    // all verification rounds came back Healthy
	VerifyDist     float64 // worst AllDist seen across verification rounds
	Recommissioned bool    // the monitor's golden reference was recaptured
	// Measured is the hardware spend the apply actually charged, as the
	// rung's repair.Report.Measured carries it — the measured figure next to
	// the ladder's sticker Cost. Zero when the ladder does not run behind a
	// station (fleet.Station) or the device is unmetered.
	Measured hwcost.Cost
}

// String renders the attempt on one line.
func (a Attempt) String() string {
	if a.ApplyErr != nil {
		return fmt.Sprintf("%s: apply failed: %v", a.Strategy, a.ApplyErr)
	}
	verdict := "FAILED verification"
	if a.Verified {
		verdict = "verified"
	}
	recom := ""
	if a.Recommissioned {
		recom = ", recommissioned"
	}
	return fmt.Sprintf("%s: %s (worst verify dist %.4f%s)", a.Strategy, verdict, a.VerifyDist, recom)
}

// Episode is the outcome of one Supervise call.
type Episode struct {
	// Trigger is the monitoring round that opened the episode.
	Trigger Round
	// Attempts lists the repair cycles run, in escalation order (empty when
	// the trigger round was healthy).
	Attempts []Attempt
	// Recovered reports that some attempt verified clean.
	Recovered bool
	// GaveUp reports that the budget was exhausted without verification;
	// the confirmed status stays elevated and Recommendation names the
	// hardware-service escalation.
	GaveUp bool
	// Recommendation is the standing advice after the episode.
	Recommendation string
	// Final is the runtime's confirmed status after the episode.
	Final monitor.Status
	// CostSpent is the budget charge for this episode: the sum of Cost()
	// over the rungs applied.
	CostSpent int
	// Measured is the summed measured hardware spend of the episode's repair
	// applications (see Attempt.Measured).
	Measured hwcost.Cost
	// RetireAdvised reports that no applicable strategy fits the remaining
	// budget (or nothing is applicable at all): spending more rounds on this
	// device cannot help, so the fleet should retire it rather than wait for
	// the budget to bleed to zero.
	RetireAdvised bool
}

// Repaired reports whether any repair work ran this episode.
func (e Episode) Repaired() bool { return len(e.Attempts) > 0 }

// String renders the episode for logs.
func (e Episode) String() string {
	if !e.Repaired() {
		return fmt.Sprintf("episode: %s, no repair", e.Final)
	}
	parts := make([]string, len(e.Attempts))
	for i, a := range e.Attempts {
		parts[i] = a.String()
	}
	verdict := "RECOVERED"
	if !e.Recovered {
		verdict = "GAVE UP"
	}
	return fmt.Sprintf("episode: trigger=%s attempts=[%s] %s → %s",
		e.Trigger.Status(), strings.Join(parts, "; "), verdict, e.Recommendation)
}

// Supervise runs one hardened monitoring round and, when the debounced
// status confirms damage (≥ Degraded), drives the detect→repair→verify loop
// over rep's ladder until the accelerator verifies clean, the ladder tops
// out, or the budget runs dry. It never panics.
//
// budget is this episode's allowance in strategy cost units (repair.CostScrub,
// repair.CostRemap, …; one unit per rung on a repair.Escalation ladder). A
// standalone runtime passes its Config.MaxRepairAttempts; the fleet
// supervisor grants each episode the device's whole remaining lifetime
// budget and charges Episode.CostSpent back. The number of (apply, verify)
// cycles is additionally capped by cfg.MaxRepairAttempts, so a pathological
// suite of zero-cost rungs cannot loop unboundedly. With budget ≤ 0 no
// repair is attempted: a confirmed-damaged round reports GaveUp immediately,
// which is the fleet's cue to retire the device to hardware service. Each
// rung is tried at most once per episode: a rung that fails verification
// escalates to the next applicable rung above it.
//
// A ctx that expires aborts retry/backoff sleeps promptly (see CheckCtx) and
// stops the ladder between attempts: no new repair cycle starts once ctx is
// done, so a shutting-down supervisor drains in bounded time instead of
// finishing a full escalate-and-verify schedule nobody is waiting for. An
// attempt already applying or verifying runs to completion — repairs are
// transactions, and tearing one down halfway would leave the hardware in a
// state the journal cannot describe.
//
// accel is typically batch-first: monitor.NetworkInfer and the campaign
// plants hand back engine-backed Infers (internal/engine) whose one call per
// round runs the whole pattern set through preallocated workspaces,
// bit-identical to a per-sample forward — so the debounce thresholds and
// verification distances behave exactly as they would on the serial path.
func (rt *Runtime) Supervise(ctx context.Context, accel monitor.Infer, rep Repairer, budget int) Episode {
	round := rt.CheckCtx(ctx, accel)
	ep := Episode{Trigger: round, Final: rt.confirmed, Recommendation: "none"}
	if round.Confirmed < monitor.Degraded || rep == nil {
		return ep
	}
	if budget <= 0 {
		ep.GaveUp = true
		ep.RetireAdvised = true
		ep.Recommendation = "hardware service: repair budget exhausted"
		return ep
	}

	strats := rep.Strategies()
	next := 0 // lowest rung still eligible this episode
	for len(ep.Attempts) < rt.cfg.MaxRepairAttempts {
		if ctx.Err() != nil {
			break
		}
		diag := rep.Diagnose(rt.confirmed)
		pick := -1
		for i := next; i < len(strats); i++ {
			if strats[i].Applicable(diag) {
				pick = i
				break
			}
		}
		if pick < 0 {
			// no rung at or above the current one applies; the post-loop
			// cheapest-applicable check decides whether to advise retirement
			break
		}
		s := strats[pick]
		if s.Cost() > budget-ep.CostSpent {
			// the cheapest eligible rung no longer fits this episode's
			// budget; stop before spending what we cannot afford
			break
		}
		att := Attempt{Strategy: s.Name(), Cost: s.Cost()}
		report, err := s.Apply(ctx, diag)
		att.Measured = report.Measured
		// the cost is charged even when the application fails: the hardware
		// operation ran (or partially ran) and the fleet's lifetime budget
		// models wear, not success
		ep.CostSpent += s.Cost()
		if err != nil {
			att.ApplyErr = err
		} else {
			if report.NewRef != nil {
				rt.mon.Recommission(report.NewRef)
				att.Recommissioned = true
			}
			att.Verified, att.VerifyDist = rt.verify(ctx, accel)
		}
		ep.Attempts = append(ep.Attempts, att)
		ep.Measured.Add(att.Measured)
		if att.Verified {
			// verification rounds are authoritative evidence of recovery;
			// bypass the de-escalation delay
			rt.forceConfirmed(monitor.Healthy)
			ep.Recovered = true
			break
		}
		next = pick + 1
	}
	ep.Final = rt.confirmed
	if ep.Recovered {
		return ep
	}
	if ctx.Err() != nil {
		// the caller canceled, the hardware was not exonerated or condemned
		// — the episode ends without a service verdict so a drain-time
		// cancellation cannot retire a repairable device
		ep.Recommendation = fmt.Sprintf("episode aborted: %v", ctx.Err())
		return ep
	}
	ep.GaveUp = true
	// retire only when the cheapest strategy still applicable — a future
	// episode restarts at rung 0 — exceeds what is left, or nothing applies
	// at all: keeping the device costs rounds and can never produce a repair
	diag := rep.Diagnose(rt.confirmed)
	cheapest := -1
	for _, s := range strats {
		if s.Applicable(diag) && (cheapest < 0 || s.Cost() < cheapest) {
			cheapest = s.Cost()
		}
	}
	switch {
	case cheapest < 0:
		ep.RetireAdvised = true
		ep.Recommendation = "hardware service: no applicable repair strategy"
	case cheapest > budget-ep.CostSpent:
		ep.RetireAdvised = true
		ep.Recommendation = "hardware service: cheapest applicable strategy exceeds remaining budget"
	default:
		ep.Recommendation = "hardware service: ladder exhausted without verification"
	}
	return ep
}

// verify runs cfg.VerifyRounds guarded raw checks and succeeds only if every
// one of them reads back finite, well-shaped and Healthy. The checks go
// through the wrapped monitor (so they appear in its history) but bypass the
// hysteresis tracker: they are part of the repair transaction, and success
// resets the tracker wholesale via forceConfirmed.
func (rt *Runtime) verify(ctx context.Context, accel monitor.Infer) (ok bool, worstDist float64) {
	ok = true
	for v := 0; v < rt.cfg.VerifyRounds; v++ {
		probs, rejected, err := rt.readout(ctx, accel)
		rt.rejects += rejected
		if err != nil {
			return false, worstDist
		}
		repRaw := rt.mon.Check(func(*tensor.Tensor) *tensor.Tensor { return probs })
		if repRaw.AllDist > worstDist {
			worstDist = repRaw.AllDist
		}
		if repRaw.Status != monitor.Healthy {
			ok = false
		}
	}
	return ok, worstDist
}
