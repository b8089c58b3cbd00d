package serve

import (
	"context"
	"sync"

	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/reram"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// Station wraps one fleet.Device for concurrent serving. The raw Device
// contract is single-goroutine (engine workspaces, plant accelerator swaps),
// but a serving frontend has two independent callers per device: the
// supervisor's monitoring tick and whichever request worker the router sent
// over. A Station serialises them on one per-device mutex and copies every
// inference result out of the device before releasing it, so a readout can
// never be trampled by the next caller reusing the same workspaces.
//
// Station itself implements fleet.Device, which is the trick that makes the
// whole stack converge on one lock: the Server commissions its fleet
// Supervisor over the Stations, so monitoring readouts, repair applications
// and serving requests all contend on the same mutex and the underlying
// device only ever sees one goroutine at a time — exactly the contract it
// was written for.
type Station struct {
	mu  sync.Mutex
	dev fleet.Device
}

// NewStation wraps dev. The raw device must not be driven directly while the
// station is in circulation.
func NewStation(dev fleet.Device) *Station { return &Station{dev: dev} }

// ID names the underlying device.
func (st *Station) ID() string { return st.dev.ID() }

// Reference reports the device's current reference model.
func (st *Station) Reference() *nn.Network { return st.dev.Reference() }

// Patterns reports the device's concurrent-test stimulus set.
func (st *Station) Patterns() *testgen.PatternSet { return st.dev.Patterns() }

// Infer returns the guarded readout path: lock, run the device's own Infer,
// clone the result out, unlock. A panic inside the device propagates to the
// caller (the lock is still released) — the health runtime and the serving
// attempt path both recover it and treat it as a fault.
func (st *Station) Infer() monitor.Infer { return st.guardedInfer }

func (st *Station) guardedInfer(x *tensor.Tensor) *tensor.Tensor {
	st.mu.Lock()
	defer st.mu.Unlock()
	// attribution happens inside the lock so a class switch can never bleed
	// into another caller's inference on the same device: every charge the
	// device makes happens under st.mu, and so does every switch
	ctr := st.CostCounter()
	prev := ctr.SetClass(reram.ClassMonitor)
	defer ctr.SetClass(prev)
	out := st.dev.Infer()(x)
	if out == nil {
		return nil
	}
	// copy out before unlocking: device Infer implementations (engine.Probs,
	// plants) return views of reused internal buffers
	return out.Clone()
}

// ServeInfer is the serving-path twin of the guarded readout: same lock,
// same copy-out discipline, but charges the device's cost counter under
// ClassServing and reports the request's measured hardware spend (the
// serving-class delta across the call; zero for unmetered devices).
func (st *Station) ServeInfer(x *tensor.Tensor) (out *tensor.Tensor, cost reram.Cost) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ctr := st.CostCounter()
	prev := ctr.SetClass(reram.ClassServing)
	defer ctr.SetClass(prev)
	before := ctr.Snapshot().Serving
	out = st.dev.Infer()(x)
	cost = ctr.Snapshot().Serving.Minus(before)
	if out == nil {
		return nil, cost
	}
	return out.Clone(), cost
}

// CostCounter implements fleet.CostMetered by forwarding to the wrapped
// device; nil when the device is unmetered.
func (st *Station) CostCounter() *reram.Counter {
	if cm, ok := st.dev.(fleet.CostMetered); ok {
		return cm.CostCounter()
	}
	return nil
}

// Repairer returns the device's repair ladder behind the station lock — a
// repair (scrubbing or reprogramming a crossbar, swapping the accelerator
// model) and the hardware census that picks it must not interleave with an
// inference on the same device.
func (st *Station) Repairer() health.Repairer {
	inner := st.dev.Repairer()
	if inner == nil {
		return nil
	}
	return lockedRepairer{st: st, inner: inner}
}

type lockedRepairer struct {
	st    *Station
	inner health.Repairer
}

// locked runs f holding the station lock with the device's cost counter in
// the repair class.
func (lr lockedRepairer) locked(f func()) {
	lr.st.mu.Lock()
	defer lr.st.mu.Unlock()
	ctr := lr.st.CostCounter()
	prev := ctr.SetClass(reram.ClassRepair)
	defer ctr.SetClass(prev)
	f()
}

// Strategies returns the device's ladder with every rung's Apply routed
// through the station lock; names, costs and applicability pass through.
func (lr lockedRepairer) Strategies() []repair.Strategy {
	var inner []repair.Strategy
	lr.locked(func() { inner = lr.inner.Strategies() })
	out := make([]repair.Strategy, len(inner))
	for i, s := range inner {
		out[i] = repair.Func{
			StrategyName: s.Name(), StrategyCost: s.Cost(), When: s.Applicable,
			Do: func(ctx context.Context, d repair.Diagnosis) (rep repair.Report, err error) {
				lr.locked(func() { rep, err = s.Apply(ctx, d) })
				return rep, err
			},
		}
	}
	return out
}

func (lr lockedRepairer) Diagnose(confirmed monitor.Status) (d repair.Diagnosis) {
	lr.locked(func() { d = lr.inner.Diagnose(confirmed) })
	return d
}
