package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reramtest/internal/health"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
)

// The Station is the convergence point of three independent callers per
// device — the supervisor's monitoring tick (which may preempt into a
// repair), the serving request path, and the drain — all contending on one
// per-device mutex. These tests drive the three concurrently; the race
// detector (serve is in RACE_PKGS) is the real assertion.

// TestStationCloneOut: the tensor a Station returns must be a copy — the
// device reuses its internal buffers on the next call, and a served response
// trampled by the next readout would be a silent corruption.
func TestStationCloneOut(t *testing.T) {
	dev := testDevices(1)[0]
	st := serve.NewStation(dev)
	x := requestBatch(0.25)
	first := st.Infer()(x)
	snapshot := first.Clone()
	// drive more traffic through the station, then check the first answer
	for i := 0; i < 4; i++ {
		st.Infer()(requestBatch(float64(i)))
	}
	if !first.Equal(snapshot) {
		t.Fatal("station returned a view of device-owned buffers — later readouts trampled an earlier response")
	}
}

// TestStationPanicReleasesLock: a device panic mid-readout must propagate to
// the caller and still release the station lock — a poisoned mutex would
// deadlock every later monitoring tick and request.
func TestStationPanicReleasesLock(t *testing.T) {
	dev := testDevices(1)[0]
	dev.set(func(d *servDevice) { d.crash = true })
	st := serve.NewStation(dev)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("device panic did not propagate through the station")
			}
		}()
		st.Infer()(requestBatch(1))
	}()

	dev.set(func(d *servDevice) { d.crash = false })
	done := make(chan struct{})
	go func() {
		defer close(done)
		if out := st.Infer()(requestBatch(2)); out == nil {
			t.Error("post-panic readout returned nil")
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("station lock not released after a device panic")
	}
}

// TestStationConcurrentInferAndRepair: monitor-style repairs and serving
// readouts must serialise on the station lock without racing the underlying
// single-goroutine device.
func TestStationConcurrentInferAndRepair(t *testing.T) {
	dev := testDevices(1)[0]
	var applies atomic.Int64
	repDev := repairableDevice{servDevice: dev, applies: &applies}
	st := serve.NewStation(repDev)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				st.Infer()(requestBatch(float64(g*100 + i)))
			}
		}(g)
	}
	reprogram := st.Repairer().Strategies()[0]
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := reprogram.Apply(context.Background(), repair.Diagnosis{}); err != nil {
					t.Error("repair under contention:", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := applies.Load(); got != 20 {
		t.Fatalf("repairs applied %d times, want 20", got)
	}
}

// repairableDevice bolts a counting repairer onto a servDevice.
type repairableDevice struct {
	*servDevice
	applies *atomic.Int64
}

func (d repairableDevice) Repairer() health.Repairer { return d }

func (d repairableDevice) Strategies() []repair.Strategy {
	apply := func() (*nn.Network, error) {
		d.applies.Add(1)
		// hold the lock long enough for contention to matter under -race
		time.Sleep(200 * time.Microsecond)
		return nil, nil
	}
	return repair.Escalation(apply, apply, apply)
}

func (d repairableDevice) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	return repair.Diagnosis{Status: confirmed}
}

// ladderDevice is a servDevice with a scrub → remap → retrain ladder whose
// remap rung clears the scripted drift. occupancy counts the callers inside
// the device at once — readout, census or rung — which the station must hold
// at one.
type ladderDevice struct {
	*servDevice
	occupancy, overlaps atomic.Int32
}

func (d *ladderDevice) enter() func() {
	if d.occupancy.Add(1) != 1 {
		d.overlaps.Add(1)
	}
	return func() { d.occupancy.Add(-1) }
}

func (d *ladderDevice) Infer() monitor.Infer {
	inner := d.servDevice.Infer()
	return func(x *tensor.Tensor) *tensor.Tensor {
		defer d.enter()()
		return inner(x)
	}
}

func (d *ladderDevice) Repairer() health.Repairer { return d }

func (d *ladderDevice) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	defer d.enter()()
	return repair.Diagnosis{Status: confirmed, Drifted: 3, Stuck: 1}
}

func (d *ladderDevice) Strategies() []repair.Strategy {
	rung := func(name string, cost int, shiftAfter float64) repair.Strategy {
		return repair.Strategy{
			Name: name, Cost: cost,
			When: func(repair.Diagnosis) bool { return true },
			Apply: func(context.Context, repair.Diagnosis) (repair.Report, error) {
				defer d.enter()()
				// hold the device long enough for a serving readout to collide
				time.Sleep(500 * time.Microsecond)
				d.set(func(sd *servDevice) { sd.shift = shiftAfter })
				return repair.Report{}, nil
			},
		}
	}
	return []repair.Strategy{
		rung("scrub", repair.CostScrub, 0.04),
		rung("remap", repair.CostRemap, 0),
		rung("retrain", repair.CostRetrain, 0),
	}
}

// TestStationCarriesTheLadder: a device behind a Station keeps its whole
// repair ladder — the supervised episode starts at scrub, not at the fixed
// escalation's reprogram — and the census and every rung run under the
// station lock, never interleaved with a serving readout.
func TestStationCarriesTheLadder(t *testing.T) {
	dev := &ladderDevice{servDevice: testDevices(1)[0]}
	dev.set(func(sd *servDevice) { sd.shift = 0.04 }) // confirmed Degraded
	st := serve.NewStation(dev)

	hcfg := fleetConfig().Health
	hcfg.EscalateAfter = 1
	rt, err := health.New(monitor.New(dev.Reference(), dev.Patterns(), nil), hcfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) { // serving traffic through the same station
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					st.Infer()(requestBatch(float64(g*1000 + i)))
				}
			}
		}(g)
	}
	ep := rt.Supervise(context.Background(), st.Infer(), st.Repairer(), 10)
	close(stop)
	wg.Wait()

	var walked []string
	for _, att := range ep.Attempts {
		walked = append(walked, att.Strategy)
	}
	if want := []string{"scrub", "remap"}; !reflect.DeepEqual(walked, want) {
		t.Fatalf("station-wrapped device walked %q, want %q: %+v", walked, want, ep)
	}
	if !ep.Recovered || ep.CostSpent != repair.CostScrub+repair.CostRemap {
		t.Fatalf("ladder episode behind the station: %+v (cost %d)", ep, ep.CostSpent)
	}
	if n := dev.overlaps.Load(); n != 0 {
		t.Fatalf("%d caller(s) entered the device while a readout, census or rung held it", n)
	}
}

// TestStationUnderPreemptionCancelAndDrain is the full collision: monitoring
// ticks preempting the device (including repair applications through the
// station lock), bulk requests whose contexts cancel mid-flight, and a drain
// racing the tail of the traffic. Gate: race-clean, zero silent drops, no
// goroutine leaks, only typed errors.
func TestStationUnderPreemptionCancelAndDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	devs := testDevices(2)
	devs[0].set(func(d *servDevice) { d.delay = time.Millisecond })
	s := newServer(t, devs, fleetConfig(), serve.Config{
		Workers: 4, HedgeAfter: 2 * time.Millisecond, DefaultDeadline: time.Second})

	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() { // the monitor-preemption arm
		defer tickWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := s.Tick(); err != nil {
					t.Error("tick:", err)
					return
				}
			}
		}
	}()

	var untyped atomic.Int64
	var reqWG sync.WaitGroup
	r := rand.New(rand.NewSource(11))
	cancelEvery := 3
	for i := 0; i < 64; i++ {
		reqWG.Add(1)
		timeout := time.Duration(1+r.Intn(4)) * time.Millisecond
		go func(i int, timeout time.Duration) {
			defer reqWG.Done()
			ctx := context.Background()
			if i%cancelEvery == 0 { // the request-cancel arm
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			_, err := s.Do(ctx, requestBatch(float64(i)), serve.Bulk)
			if err != nil && !errors.Is(err, serve.ErrDeadline) && !errors.Is(err, serve.ErrOverloaded) &&
				!errors.Is(err, serve.ErrNoDevices) && !errors.Is(err, serve.ErrFaulted) &&
				!errors.Is(err, serve.ErrClosed) {
				untyped.Add(1)
			}
		}(i, timeout)
	}

	// drain races the tail of the request wave
	time.Sleep(5 * time.Millisecond)
	closeErr := s.Close()
	close(stop)
	tickWG.Wait()
	reqWG.Wait()

	if closeErr != nil {
		t.Fatal("drain:", closeErr)
	}
	if n := untyped.Load(); n != 0 {
		t.Fatalf("%d untyped error(s) escaped under preemption+cancel+drain", n)
	}
	if st := s.Stats(); st.Admitted != st.Terminal() {
		t.Fatalf("silent drops under contention: %+v", st)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}
