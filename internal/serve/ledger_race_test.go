package serve_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/hwcost"
	"reramtest/internal/monitor"
	"reramtest/internal/repair"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
)

// meteredDevice is a servDevice whose inference runs on a compiled engine
// charging its own cost counter, with one repair rung that charges a fixed
// write pass. park, when set, holds the next inference inside the device
// (and so inside the station lock) until released.
type meteredDevice struct {
	*servDevice
	eng     *engine.Engine
	rows    atomic.Uint64 // rows the engine ran, whoever asked
	applies atomic.Uint64

	parkMu sync.Mutex
	park   chan struct{}
	parked chan struct{}
}

// repairCharge is what one rung application writes.
var repairCharge = hwcost.Cost{CrossbarWrites: 64, EnergyFJ: 64 * hwcost.EnergyCellWriteFJ}

func (d *meteredDevice) CostCounter() *hwcost.Counter { return d.eng.Counter() }
func (d *meteredDevice) Repairer() health.Repairer    { return d }

func (d *meteredDevice) Infer() monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		d.parkMu.Lock()
		park, parked := d.park, d.parked
		d.park = nil
		d.parkMu.Unlock()
		if park != nil {
			close(parked)
			<-park
		}
		d.mu.Lock()
		shift := d.shift
		d.mu.Unlock()
		d.rows.Add(uint64(x.Dim(0)))
		probs := d.eng.Probs(x)
		if shift != 0 {
			probs.Apply(func(v float64) float64 { return v + shift })
		}
		return probs
	}
}

func (d *meteredDevice) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	return repair.Diagnosis{Status: confirmed, Drifted: 1}
}

func (d *meteredDevice) Strategies() []repair.Strategy {
	return []repair.Strategy{repair.Func{
		StrategyName: "scrub", StrategyCost: repair.CostScrub,
		When: func(repair.Diagnosis) bool { return true },
		Do: func(context.Context, repair.Diagnosis) (repair.Report, error) {
			d.applies.Add(1)
			d.eng.Counter().Charge(repairCharge)
			d.set(func(sd *servDevice) { sd.shift = 0 })
			return repair.Report{Strategy: "scrub"}, nil
		},
	}}
}

// parkNext arms the park for the next inference and returns the channel
// that closes once it is parked, and the release.
func (d *meteredDevice) parkNext() (parked <-chan struct{}, release func()) {
	d.parkMu.Lock()
	defer d.parkMu.Unlock()
	park, p := make(chan struct{}), make(chan struct{})
	d.park, d.parked = park, p
	return p, func() { close(park) }
}

// TestLedgerExactUnderConcurrentServeMonitorRepair drives one metered device
// behind its station from three sides at once — serving requests, monitor
// checks and probes, and supervised repairs whose rung charges — and holds
// the per-class books to exact identities: every request's cost is its rows
// × PlanCost, the monitor class is the readout rows × PlanCost, and the
// repair class is the sum of the attempts' measured spend. Each monitor
// operation is started while a request is parked inside the device, which is
// the interleaving that misbooks a request whose class is switched by a
// caller outside the station lock.
func TestLedgerExactUnderConcurrentServeMonitorRepair(t *testing.T) {
	base := testDevices(1)[0]
	dev := &meteredDevice{servDevice: base, eng: engine.MustCompile(base.net.Clone(), engine.Options{})}
	per := dev.eng.PlanCost()
	st := serve.NewStation(dev)

	fcfg := fleetConfig()
	fcfg.Health.EscalateAfter = 1
	sup, err := fleet.New([]fleet.Device{st}, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := sup.RuntimeOf(dev.ID())

	var servedRows atomic.Uint64
	var misbilled atomic.Int64
	serveOne := func(x *tensor.Tensor) {
		out, cost := st.ServeInfer(x)
		rows := uint64(x.Dim(0))
		servedRows.Add(rows)
		if out == nil || cost != per.Scale(rows) {
			misbilled.Add(1)
		}
	}

	stop := make(chan struct{})
	var background sync.WaitGroup
	for g := 0; g < 2; g++ {
		background.Add(1)
		go func(g int) {
			defer background.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					serveOne(requestBatch(float64(g*1000 + i)))
				}
			}
		}(g)
	}

	var measured hwcost.Cost
	for i := 0; i < 24; i++ {
		parked, release := dev.parkNext()
		var held sync.WaitGroup
		held.Add(1)
		go func() { defer held.Done(); serveOne(requestBatch(float64(-i))) }()
		<-parked

		// the monitor operation's first readout announces itself, then
		// queues on the station behind the parked request
		reached := make(chan struct{})
		var once sync.Once
		accel := func(x *tensor.Tensor) *tensor.Tensor {
			once.Do(func() { close(reached) })
			return st.Infer()(x)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			switch i % 3 {
			case 0:
				rt.Check(accel)
			case 1:
				if err := rt.Probe(accel); err != nil {
					t.Error("probe:", err)
				}
			default:
				dev.set(func(sd *servDevice) { sd.shift = 0.04 }) // confirmed Degraded
				ep := rt.Supervise(context.Background(), accel, st.Repairer(), 10)
				measured.Add(ep.Measured)
			}
		}()
		<-reached
		release()
		held.Wait()
		<-done
	}
	close(stop)
	background.Wait()

	if n := misbilled.Load(); n != 0 {
		t.Errorf("%d request(s) billed other than rows × PlanCost", n)
	}
	if dev.applies.Load() == 0 {
		t.Fatal("no repair ran")
	}
	snap := dev.eng.Counter().Snapshot()
	served := servedRows.Load()
	if want := per.Scale(served); snap.Serving != want {
		t.Errorf("serving class %+v, want %d rows × PlanCost = %+v", snap.Serving, served, want)
	}
	readout := dev.rows.Load() - served
	if want := per.Scale(readout); snap.Monitor != want {
		t.Errorf("monitor class %+v, want %d readout rows × PlanCost = %+v", snap.Monitor, readout, want)
	}
	if snap.Repair != measured || measured != repairCharge.Scale(dev.applies.Load()) {
		t.Errorf("repair class %+v, Σ Attempt.Measured %+v, %d applies × %+v",
			snap.Repair, measured, dev.applies.Load(), repairCharge)
	}
}
