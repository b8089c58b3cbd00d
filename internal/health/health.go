// Package health hardens the one-shot concurrent-test monitor into a
// runtime that can be trusted in the field. internal/monitor answers "what
// does this round's readout say"; this package answers "what should the
// system believe and do", surviving the failure modes a deployed monitor
// actually meets:
//
//   - read noise: a single noisy readout must not flap the reported status
//     HEALTHY↔DEGRADED. The Runtime debounces with hysteresis — a new level
//     is confirmed only after K consecutive rounds of agreeing evidence
//     (escalation and de-escalation each have their own K).
//   - broken readouts: an Infer that returns NaN/Inf confidences, a
//     wrong-shape tensor, or panics outright is rejected, retried with
//     bounded exponential backoff, and counted. A poisoned readout never
//     crashes the runtime and never yields a Healthy verdict.
//   - unbounded state: the per-round history is a bounded ring buffer.
//   - open-loop repair: see supervise.go — repairs are verified, escalated
//     on verification failure, and abandoned gracefully when the retry
//     budget is exhausted.
package health

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"reramtest/internal/monitor"
	"reramtest/internal/tensor"
)

// The runtime's fixed hardening parameters.
const (
	// DeescalateAfter is the number of consecutive rounds the raw status must
	// sit at a lower level before the confirmed status relaxes. It is slower
	// than any deployment's escalation: missing real damage costs more than
	// lingering caution.
	DeescalateAfter = 3
	// MaxReadRetries is how many times a rejected readout (NaN/Inf, wrong
	// shape, panic) is retried within one round before the round is declared
	// a sensor fault.
	MaxReadRetries = 3
	// MaxHistory bounds the retained Round ring buffer.
	MaxHistory = 256
	// VerifyRounds is how many consecutive clean raw checks a repair must
	// pass before it is accepted (>1 makes verification itself noise-proof).
	VerifyRounds = 2
)

// Config tunes the hardened runtime.
type Config struct {
	// EscalateAfter is the number of consecutive rounds the raw status must
	// sit at a new higher level before the confirmed status escalates.
	EscalateAfter int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it up to BackoffMax.
	BackoffBase, BackoffMax time.Duration
	// Sleep is the backoff clock; nil means time.Sleep. Tests and simulated
	// campaigns inject a no-op.
	Sleep func(time.Duration)
}

// DefaultConfig returns field-reasonable hardening parameters: escalate on 2
// agreeing rounds and back a rejected readout off from 2 ms to at most
// 50 ms on the wall clock.
func DefaultConfig() Config {
	return Config{
		EscalateAfter: 2,
		BackoffBase:   2 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
	}
}

// Validate rejects configurations the runtime cannot operate under.
func (c Config) Validate() error {
	if c.EscalateAfter < 1 {
		return fmt.Errorf("health: EscalateAfter must be ≥ 1, got %d", c.EscalateAfter)
	}
	if c.BackoffBase < 0 || c.BackoffMax < 0 {
		return fmt.Errorf("health: backoff durations must be ≥ 0")
	}
	if c.BackoffBase > c.BackoffMax {
		return fmt.Errorf("health: BackoffBase %v exceeds BackoffMax %v", c.BackoffBase, c.BackoffMax)
	}
	return nil
}

// Round is the runtime's per-check record: the raw monitor evidence plus the
// debounced verdict.
type Round struct {
	// Seq numbers runtime rounds from 1.
	Seq int
	// Report is the raw monitor report (zero-valued when ReadoutOK=false:
	// every readout attempt this round was rejected).
	Report monitor.Report
	// Raw is the undebounced evidence this round fed to the hysteresis
	// tracker. For a sensor-fault round it is the synthetic SensorFaultStatus.
	Raw monitor.Status
	// Confirmed is the debounced status after this round.
	Confirmed monitor.Status
	// Changed reports whether Confirmed moved this round.
	Changed bool
	// ReadoutOK is false when no readout attempt survived validation.
	ReadoutOK bool
	// Rejected counts readout attempts discarded this round (NaN/Inf, shape
	// mismatch, panic).
	Rejected int
	// SensorFault marks a round whose every readout was rejected.
	SensorFault bool
	// Err describes the last rejection when SensorFault is set.
	Err error
}

// SensorFaultStatus is the severity a fully failed readout round feeds to
// the hysteresis tracker: the accelerator is unobservable, which warrants
// escalating toward repair if it persists, without jumping straight to
// Critical on one glitch.
const SensorFaultStatus = monitor.Impaired

// Runtime wraps a commissioned monitor with status hysteresis, readout
// validation/retry and a bounded history. It is not safe for concurrent use.
type Runtime struct {
	mon *monitor.Monitor
	cfg Config

	confirmed monitor.Status
	// directional hysteresis state: consecutive rounds of above-confirmed
	// (resp. below-confirmed) evidence and the most conservative level seen
	// during each streak. Tracking a level range instead of one candidate
	// means raw evidence oscillating between, say, Impaired and Critical
	// still escalates (to Impaired — every round agreed it is at least that
	// bad) instead of resetting the streak forever.
	upStreak, downStreak int
	upMin, downMax       monitor.Status

	rounds  []Round // ring buffer
	start   int
	seq     int
	flips   int // confirmed-status changes since commissioning
	rejects int // total rejected readouts
	panics  int // rejected readouts caused by a panicking Infer
}

// New wraps mon in a hardened runtime. mon must be non-nil and already
// commissioned.
func New(mon *monitor.Monitor, cfg Config) (*Runtime, error) {
	if mon == nil {
		return nil, errors.New("health: nil monitor")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runtime{mon: mon, cfg: cfg, confirmed: monitor.Healthy}, nil
}

// Monitor exposes the wrapped monitor (read-mostly: trend, history,
// calibration).
func (rt *Runtime) Monitor() *monitor.Monitor { return rt.mon }

// Confirmed returns the current debounced status.
func (rt *Runtime) Confirmed() monitor.Status { return rt.confirmed }

// RejectedReadouts returns the total number of discarded readout attempts
// and how many of those were panics recovered from the Infer callback.
func (rt *Runtime) RejectedReadouts() (rejected, panics int) { return rt.rejects, rt.panics }

// History returns the retained rounds in chronological order.
func (rt *Runtime) History() []Round {
	out := make([]Round, 0, len(rt.rounds))
	out = append(out, rt.rounds[rt.start:]...)
	out = append(out, rt.rounds[:rt.start]...)
	return out
}

// Check runs one hardened monitoring round: guarded readout (with retries),
// raw classification by the wrapped monitor, then hysteresis update. It
// never panics, whatever accel does.
//
// A ctx that expires or is canceled aborts the retry/backoff schedule
// promptly — the remaining attempts (and their sleeps) are skipped and the
// round is recorded as a sensor fault whose Err wraps ctx.Err(). Cancellation
// never interrupts an attempt already executing (Infer is synchronous); it
// cuts the waits between attempts, which is where a shutting-down supervisor
// actually spends its time.
func (rt *Runtime) Check(ctx context.Context, accel monitor.Infer) Round {
	rt.seq++
	round := Round{Seq: rt.seq}

	probs, rejected, err := rt.readout(ctx, accel)
	round.Rejected = rejected
	rt.rejects += rejected
	if err != nil {
		round.ReadoutOK = false
		round.SensorFault = true
		round.Err = err
		round.Raw = SensorFaultStatus
	} else {
		round.ReadoutOK = true
		round.Report = rt.mon.Check(func(*tensor.Tensor) *tensor.Tensor { return probs })
		round.Raw = round.Report.Status
	}

	round.Confirmed, round.Changed = rt.debounce(round.Raw)
	rt.record(round)
	return round
}

// debounce feeds one round of raw evidence into the hysteresis tracker and
// returns the (possibly moved) confirmed status.
func (rt *Runtime) debounce(raw monitor.Status) (monitor.Status, bool) {
	switch {
	case raw == rt.confirmed:
		// agreeing evidence: both pending streaks collapse
		rt.upStreak, rt.downStreak = 0, 0
	case raw > rt.confirmed:
		if rt.upStreak == 0 || raw < rt.upMin {
			rt.upMin = raw
		}
		rt.upStreak++
		rt.downStreak = 0
		if rt.upStreak >= rt.cfg.EscalateAfter {
			rt.confirmed = rt.upMin
			rt.upStreak, rt.downStreak = 0, 0
			rt.flips++
			return rt.confirmed, true
		}
	default: // raw < rt.confirmed
		if rt.downStreak == 0 || raw > rt.downMax {
			rt.downMax = raw
		}
		rt.downStreak++
		rt.upStreak = 0
		if rt.downStreak >= DeescalateAfter {
			rt.confirmed = rt.downMax
			rt.upStreak, rt.downStreak = 0, 0
			rt.flips++
			return rt.confirmed, true
		}
	}
	return rt.confirmed, false
}

// forceConfirmed pins the debounced status (used after a verified repair:
// the verification rounds are authoritative, waiting DeescalateAfter more
// rounds would only delay the all-clear).
func (rt *Runtime) forceConfirmed(s monitor.Status) {
	if rt.confirmed != s {
		rt.flips++
	}
	rt.confirmed, rt.upStreak, rt.downStreak = s, 0, 0
}

// record appends the round to the bounded ring buffer.
func (rt *Runtime) record(r Round) {
	if len(rt.rounds) < MaxHistory {
		rt.rounds = append(rt.rounds, r)
		return
	}
	rt.rounds[rt.start] = r
	rt.start = (rt.start + 1) % len(rt.rounds)
}

// readout obtains one validated confidence batch from accel, retrying
// rejected attempts with bounded exponential backoff. It returns the batch,
// the number of rejected attempts, and the last rejection when every attempt
// failed. A canceled ctx short-circuits the remaining schedule: the error
// then wraps ctx.Err() so callers can distinguish "sensor broken" from
// "caller gave up waiting".
func (rt *Runtime) readout(ctx context.Context, accel monitor.Infer) (probs *tensor.Tensor, rejected int, err error) {
	backoff := rt.cfg.BackoffBase
	for attempt := 0; attempt <= MaxReadRetries; attempt++ {
		if attempt > 0 {
			if cerr := rt.sleepCtx(ctx, backoff); cerr != nil {
				return nil, rejected, fmt.Errorf("health: readout retries aborted after %d rejections (last: %v): %w", rejected, err, cerr)
			}
			backoff *= 2
			if backoff > rt.cfg.BackoffMax {
				backoff = rt.cfg.BackoffMax
			}
		}
		var p *tensor.Tensor
		p, err = rt.safeInfer(accel)
		if err == nil {
			err = rt.validate(p)
		}
		if err == nil {
			return p, rejected, nil
		}
		rejected++
	}
	return nil, rejected, err
}

// safeInfer calls accel under a panic recovery barrier.
func (rt *Runtime) safeInfer(accel monitor.Infer) (probs *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			rt.panics++
			probs = nil
			err = fmt.Errorf("health: Infer panicked: %v", r)
		}
	}()
	return accel(rt.mon.Input()), nil
}

// validate rejects readouts the monitor must not score: nil or wrong-shape
// batches and any NaN/Inf confidence entry.
func (rt *Runtime) validate(probs *tensor.Tensor) error {
	if probs == nil {
		return errors.New("health: Infer returned nil")
	}
	m, n := rt.mon.PatternCount(), rt.mon.Classes()
	if probs.Rank() != 2 || probs.Dim(0) != m || probs.Dim(1) != n {
		return fmt.Errorf("health: readout shape %v, want (%d, %d)", probs.Shape(), m, n)
	}
	for _, v := range probs.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("health: readout contains non-finite confidence %v", v)
		}
	}
	return nil
}

// sleepCtx waits d on the configured clock, returning early (with ctx.Err())
// when ctx is canceled first. With an injected Sleep the cancellation check
// runs before the callback — simulated-time campaigns see the same prompt
// abort semantics without a real timer.
func (rt *Runtime) sleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	if rt.cfg.Sleep != nil {
		rt.cfg.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
