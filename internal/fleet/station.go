package fleet

import (
	"context"
	"sync"

	"reramtest/internal/health"
	"reramtest/internal/hwcost"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// Station is the one owner of a Device. The raw Device contract is
// single-goroutine (engine workspaces, plant accelerator swaps), but a
// device in service has independent callers: the supervisor's monitoring
// tick, its repair ladder and whichever request worker the router sent
// over. A Station serialises them on one per-device mutex and copies every
// inference result out of the device before releasing it, so a readout can
// never be trampled by the next caller reusing the same workspaces.
//
// The lock holder is also the only code that attributes the device's
// hardware spend: charge sites stay classless, and each locked path settles
// what the device charged into its own class as it releases the lock —
// readouts to monitor, serving inferences to serving, the repair ladder to
// repair. A class is never held as state while the device runs, so no
// caller can book another caller's work.
//
// Station itself implements Device. New and Resume wrap every device in one
// (a Device that already is a *Station is used as is), so monitoring
// readouts, repair applications and serving requests all contend on the same
// mutex and the underlying device only ever sees one goroutine at a time.
type Station struct {
	mu  sync.Mutex
	dev Device
	ctr *hwcost.Counter // nil when the device is not CostMetered
}

// NewStation wraps dev. The raw device must not be driven directly while the
// station is in circulation.
func NewStation(dev Device) *Station {
	st := &Station{dev: dev}
	if cm, ok := dev.(CostMetered); ok {
		st.ctr = cm.CostCounter()
	}
	return st
}

// ID names the underlying device.
func (st *Station) ID() string { return st.dev.ID() }

// Reference reports the device's current reference model.
func (st *Station) Reference() *nn.Network { return st.dev.Reference() }

// Patterns reports the device's concurrent-test stimulus set.
func (st *Station) Patterns() *testgen.PatternSet { return st.dev.Patterns() }

// CostCounter implements CostMetered; nil when the device is unmetered.
func (st *Station) CostCounter() *hwcost.Counter { return st.ctr }

// Infer returns the guarded readout path: lock, run the device's own Infer,
// clone the result out, book the spend to the monitor class, unlock. A panic
// inside the device propagates to the caller (the lock is still released) —
// the health runtime and the serving attempt path both recover it and treat
// it as a fault.
func (st *Station) Infer() monitor.Infer { return st.guardedInfer }

func (st *Station) guardedInfer(x *tensor.Tensor) *tensor.Tensor {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.ctr.Settle(hwcost.ClassMonitor)
	return cloneOut(st.dev.Infer()(x))
}

// ServeInfer is the serving-path twin of the guarded readout: same lock,
// same copy-out discipline, but books the spend to the serving class and
// returns it — the request's measured hardware cost (zero for unmetered
// devices).
func (st *Station) ServeInfer(x *tensor.Tensor) (out *tensor.Tensor, cost hwcost.Cost) {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer func() { cost = st.ctr.Settle(hwcost.ClassServing) }()
	return cloneOut(st.dev.Infer()(x)), cost
}

// cloneOut copies a result out before the lock is released: device Infer
// implementations (engine.Probs, plants) return views of reused internal
// buffers. nil stays nil.
func cloneOut(t *tensor.Tensor) *tensor.Tensor {
	if t == nil {
		return nil
	}
	return t.Clone()
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

// locked runs f holding the station lock and books what it charged to the
// repair class.
func (lr lockedRepairer) locked(f func()) (spent hwcost.Cost) {
	lr.st.mu.Lock()
	defer lr.st.mu.Unlock()
	defer func() { spent = lr.st.ctr.Settle(hwcost.ClassRepair) }()
	f()
	return spent
}

// Strategies returns the device's ladder with every rung's Apply routed
// through the station lock and its spend reported in Report.Measured; names,
// costs and applicability pass through.
func (lr lockedRepairer) Strategies() []repair.Strategy {
	var inner []repair.Strategy
	lr.locked(func() { inner = lr.inner.Strategies() })
	out := make([]repair.Strategy, len(inner))
	for i, s := range inner {
		apply := s.Apply
		s.Apply = func(ctx context.Context, d repair.Diagnosis) (rep repair.Report, err error) {
			spent := lr.locked(func() { rep, err = apply(ctx, d) })
			rep.Measured = spent
			return rep, err
		}
		out[i] = s
	}
	return out
}

func (lr lockedRepairer) Diagnose(confirmed monitor.Status) (d repair.Diagnosis) {
	lr.locked(func() { d = lr.inner.Diagnose(confirmed) })
	return d
}
