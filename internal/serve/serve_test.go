package serve_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// servDevice is a scripted accelerator for frontend tests: injectable drift
// (confidence shift), crashes, slow readouts and a gate that holds inference
// until released. Its own state is mutex-guarded because tests mutate the
// script while the server drives traffic.
type servDevice struct {
	id       string
	net      *nn.Network
	patterns *testgen.PatternSet

	mu    sync.Mutex
	shift float64
	crash bool
	delay time.Duration
	gate  chan struct{}
	calls []float64 // first element of each inferred batch, in serve order
}

func (d *servDevice) ID() string                    { return d.id }
func (d *servDevice) Reference() *nn.Network        { return d.net }
func (d *servDevice) Patterns() *testgen.PatternSet { return d.patterns }
func (d *servDevice) Repairer() health.Repairer     { return nil }

func (d *servDevice) set(f func(*servDevice)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(d)
}

func (d *servDevice) callLog() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.calls...)
}

func (d *servDevice) Infer() monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		d.mu.Lock()
		crash, delay, shift, gate := d.crash, d.delay, d.shift, d.gate
		d.calls = append(d.calls, x.Data()[0])
		d.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if crash {
			panic("servDevice: injected crash")
		}
		probs := probsOf(d.net, x)
		if shift != 0 {
			probs.Apply(func(v float64) float64 { return v + shift })
		}
		return probs
	}
}

func testDevices(n int) []*servDevice {
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	devs := make([]*servDevice, n)
	for i := range devs {
		devs[i] = &servDevice{id: fmt.Sprintf("dev-%d", i),
			net: models.MLP(rng.New(1), 16, []int{12}, 5), patterns: patterns}
	}
	return devs
}

func fleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Health.Sleep = func(time.Duration) {}
	return cfg
}

func newServer(t *testing.T, devs []*servDevice, fcfg fleet.Config, scfg serve.Config) *serve.Server {
	t.Helper()
	wrapped := make([]fleet.Device, len(devs))
	for i, d := range devs {
		wrapped[i] = d
	}
	s, err := serve.New(wrapped, fcfg, scfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func requestBatch(tag float64) *tensor.Tensor {
	x := tensor.RandUniform(rng.New(7), 0, 1, 2, 16)
	x.Data()[0] = tag
	return x
}

func TestServeHappyPath(t *testing.T) {
	devs := testDevices(2)
	s := newServer(t, devs, fleetConfig(), serve.Config{})
	defer s.Close()

	x := requestBatch(0.5)
	want := probsOf(devs[0].net, x) // identical nets on every device
	resp, err := s.Do(context.Background(), x, serve.Bulk)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Probs.Equal(want) {
		t.Fatal("served confidences differ from the device's own forward")
	}
	if resp.Degraded || resp.Status != monitor.Healthy {
		t.Fatalf("healthy fleet served resp=%+v", resp)
	}
	if resp.Hedged || resp.Retried {
		t.Fatalf("uncontended request was hedged/retried: %+v", resp)
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Served != 1 || st.Terminal() != 1 {
		t.Fatalf("stats after one request: %+v", st)
	}
}

func TestBadRequestRejectedBeforeAdmission(t *testing.T) {
	s := newServer(t, testDevices(1), fleetConfig(), serve.Config{})
	defer s.Close()
	if _, err := s.Do(context.Background(), nil, serve.Bulk); err == nil {
		t.Fatal("nil batch admitted")
	}
	if _, err := s.Do(context.Background(), tensor.New(2, 7), serve.Bulk); err == nil {
		t.Fatal("wrong-width batch admitted")
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("malformed requests were admitted: %+v", st)
	}
}

// TestTypedErrOverloaded: with the single worker pinned on a gated device and
// the bulk queue full, the next Do must reject immediately with
// ErrOverloaded — not queue invisibly, not block.
func TestTypedErrOverloaded(t *testing.T) {
	devs := testDevices(1)
	gate := make(chan struct{})
	devs[0].set(func(d *servDevice) { d.gate = gate })
	s := newServer(t, devs, fleetConfig(), serve.Config{
		Workers: 1, QueueBulk: 1, QueueMonitor: 1, DefaultDeadline: 5 * time.Second})
	defer s.Close()
	// Close waits for the gated device: open the gate first on every way out,
	// so a failed assertion fails the test instead of hanging it
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	defer release()

	var wg sync.WaitGroup
	do := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(context.Background(), requestBatch(1), serve.Bulk)
		}()
	}
	// the first request pins the worker; only once the device is inside its
	// gate — the queue's one slot free again — may the second go in to fill it
	// (sent together, the second can find the first still queued and bounce)
	do()
	waitFor(t, func() bool { return len(devs[0].callLog()) == 1 })
	do()
	waitFor(t, func() bool { return s.Stats().Admitted == 2 })

	_, err := s.Do(context.Background(), requestBatch(2), serve.Bulk)
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	release()
	wg.Wait()
	if st := s.Stats(); st.Overloads != 1 || st.Admitted != st.Terminal() {
		t.Fatalf("post-overload stats: %+v", st)
	}
}

// TestTypedErrDeadline: a slow device must not hold the caller past its
// context deadline; the stuck attempt finishes in the background.
func TestTypedErrDeadline(t *testing.T) {
	devs := testDevices(1)
	devs[0].set(func(d *servDevice) { d.delay = 300 * time.Millisecond })
	s := newServer(t, devs, fleetConfig(), serve.Config{HedgeAfter: time.Hour})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Do(ctx, requestBatch(1), serve.Bulk)
	if !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("expired request returned %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("deadline return took %v — the caller waited out the slow device", elapsed)
	}
	if st := s.Stats(); st.Deadlines != 1 {
		t.Fatalf("deadline not counted: %+v", st)
	}
}

// TestDeadlineExpiresInQueue: a request whose DoBy deadline passes while it
// waits behind a busy worker is answered ErrDeadline on time, and the worker
// that finally takes it touches no device.
func TestDeadlineExpiresInQueue(t *testing.T) {
	devs := testDevices(1)
	gate := make(chan struct{})
	devs[0].set(func(d *servDevice) { d.gate = gate })
	s := newServer(t, devs, fleetConfig(), serve.Config{Workers: 1, HedgeAfter: time.Hour})
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	defer s.Close()
	defer release()

	pinned := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), requestBatch(1), serve.Bulk)
		pinned <- err
	}()
	waitFor(t, func() bool { return len(devs[0].callLog()) == 1 })

	start := time.Now()
	_, err := s.DoBy(context.Background(), requestBatch(2), serve.Bulk, start.Add(30*time.Millisecond))
	if !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("request expired in the queue returned %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("queued request's deadline return took %v", elapsed)
	}
	release()
	if err := <-pinned; err != nil {
		t.Fatal("the pinned request:", err)
	}
	s.Close()
	if calls := devs[0].callLog(); len(calls) != 1 {
		t.Fatalf("device saw batches %v; the expired request reached it", calls)
	}
	if st := s.Stats(); st.Deadlines != 1 || st.Served != 1 || st.Admitted != st.Terminal() {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDeadlineExpiresMidFlight: a DoBy deadline, with no context deadline
// behind it, returns the caller on time while the slow attempt finishes in
// the background.
func TestDeadlineExpiresMidFlight(t *testing.T) {
	devs := testDevices(1)
	devs[0].set(func(d *servDevice) { d.delay = 300 * time.Millisecond })
	s := newServer(t, devs, fleetConfig(), serve.Config{HedgeAfter: time.Hour})
	defer s.Close()

	start := time.Now()
	_, err := s.DoBy(context.Background(), requestBatch(1), serve.Bulk, start.Add(30*time.Millisecond))
	if !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("expired request returned %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("deadline return took %v — the caller waited out the slow device", elapsed)
	}
	if len(devs[0].callLog()) != 1 {
		t.Fatal("the attempt never reached the device")
	}
	s.Close() // waits for the background attempt
	if st := s.Stats(); st.Deadlines != 1 || st.Admitted != st.Terminal() {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCanceledCallerEndsDo: canceling the caller's context ends Do with a
// typed error although the request's deadline is far off.
func TestCanceledCallerEndsDo(t *testing.T) {
	devs := testDevices(1)
	gate := make(chan struct{})
	devs[0].set(func(d *servDevice) { d.gate = gate })
	s := newServer(t, devs, fleetConfig(), serve.Config{HedgeAfter: time.Hour, DefaultDeadline: time.Minute})
	defer s.Close()
	defer close(gate)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for len(devs[0].callLog()) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel() // once the attempt is on the device
	}()
	_, err := s.Do(ctx, requestBatch(1), serve.Bulk)
	if !errors.Is(err, serve.ErrDeadline) || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("canceled request returned %v, want ErrDeadline naming the cancel", err)
	}
}

// TestFiredRecordDoesNotExpireTheNext: the records of expired requests go
// back to the pool with their fired timers, and the requests that reuse
// them are served.
func TestFiredRecordDoesNotExpireTheNext(t *testing.T) {
	devs := testDevices(1)
	s := newServer(t, devs, fleetConfig(), serve.Config{Workers: 1, HedgeAfter: time.Hour})
	defer s.Close()

	devs[0].set(func(d *servDevice) { d.delay = 20 * time.Millisecond })
	for i := 0; i < 4; i++ {
		if _, err := s.DoBy(context.Background(), requestBatch(1), serve.Bulk, time.Now().Add(time.Millisecond)); !errors.Is(err, serve.ErrDeadline) {
			t.Fatalf("request %d returned %v, want ErrDeadline", i, err)
		}
	}
	// a request may expire in the queue before the device sees it, so wait
	// for the device calls to stop rather than for four of them; the quiet
	// window also lets the abandoned attempts put their records back, so the
	// requests below reuse them (a slow host makes the test cover less,
	// never fail)
	waitSettled(t, func() int { return len(devs[0].callLog()) })
	devs[0].set(func(d *servDevice) { d.delay = 0 })
	for i := 0; i < 50; i++ {
		if _, err := s.Do(context.Background(), requestBatch(2), serve.Bulk); err != nil {
			t.Fatalf("request %d after the expired ones: %v", i, err)
		}
	}
}

// TestTypedErrNoDevicesAfterServingFaults: serving-path faults must feed the
// circuit breaker (quarantining the device without a monitoring tick), and a
// fully quarantined fleet must answer ErrNoDevices.
func TestTypedErrNoDevicesAfterServingFaults(t *testing.T) {
	devs := testDevices(1)
	devs[0].set(func(d *servDevice) { d.crash = true })
	fcfg := fleetConfig()
	fcfg.BreakerOpenAfter = 2
	s := newServer(t, devs, fcfg, serve.Config{})
	defer s.Close()

	for i := 0; i < 2; i++ {
		if _, err := s.Do(context.Background(), requestBatch(1), serve.Bulk); !errors.Is(err, serve.ErrFaulted) {
			t.Fatalf("request %d on crashing device returned %v, want ErrFaulted", i, err)
		}
	}
	if q := s.Quarantined(); len(q) != 1 {
		t.Fatalf("two serving faults did not quarantine the device: quarantined=%v", q)
	}
	_, err := s.Do(context.Background(), requestBatch(1), serve.Bulk)
	if !errors.Is(err, serve.ErrNoDevices) {
		t.Fatalf("quarantined fleet returned %v, want ErrNoDevices", err)
	}
	st := s.Stats()
	if st.FaultFailures != 2 || st.NoDevices != 1 || st.Admitted != st.Terminal() {
		t.Fatalf("stats: %+v", st)
	}
}

// brokenDevice answers every inference with what a healthy device never
// returns.
type brokenDevice struct {
	*servDevice
	out func(x *tensor.Tensor) *tensor.Tensor
}

func (d brokenDevice) Infer() monitor.Infer { return d.out }

// TestMalformedAnswerIsAFault: a device that answers nothing, or a batch of
// the wrong shape, is a faulted request, not a served one.
func TestMalformedAnswerIsAFault(t *testing.T) {
	for _, tc := range []struct {
		want string
		out  func(*tensor.Tensor) *tensor.Tensor
	}{
		{"returned no output", func(*tensor.Tensor) *tensor.Tensor { return nil }},
		{"malformed batch", func(x *tensor.Tensor) *tensor.Tensor { return tensor.New(x.Dim(0)+1, 5) }},
		{"malformed batch", func(x *tensor.Tensor) *tensor.Tensor { return tensor.New(x.Dim(0) * 5) }},
	} {
		dev := brokenDevice{servDevice: testDevices(1)[0], out: tc.out}
		s, err := serve.New([]fleet.Device{dev}, fleetConfig(), serve.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Do(context.Background(), requestBatch(2), serve.Bulk)
		if !errors.Is(err, serve.ErrFaulted) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Do returned %v, want ErrFaulted naming %q", err, tc.want)
		}
		s.Close()
	}
	if _, err := serve.New([]fleet.Device{testDevices(1)[0]}, fleetConfig(), serve.Config{Workers: -1}, nil); err == nil {
		t.Error("negative worker count accepted")
	}
	if serve.Monitor.String() != "monitor" || serve.Bulk.String() != "bulk" {
		t.Errorf("priorities named %q and %q", serve.Monitor, serve.Bulk)
	}
}

// TestHedgedRequestServedByAlternate: a silent primary must not stall the
// request — after HedgeAfter the hedge lands on the other device and wins.
func TestHedgedRequestServedByAlternate(t *testing.T) {
	devs := testDevices(2)
	devs[0].set(func(d *servDevice) { d.delay = 400 * time.Millisecond })
	s := newServer(t, devs, fleetConfig(), serve.Config{HedgeAfter: 10 * time.Millisecond})
	defer s.Close()

	start := time.Now()
	resp, err := s.Do(context.Background(), requestBatch(1), serve.Bulk)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hedged || resp.Device != "dev-1" {
		t.Fatalf("response not from the hedge: %+v", resp)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("hedged answer took %v — the hedge did not cut the slow primary's latency", elapsed)
	}
	if st := s.Stats(); st.Hedges != 1 || st.Served != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRetriedOnFaultedPrimary: a mid-request crash must be retried once on a
// different device and reported into the breaker, invisibly to the caller.
func TestRetriedOnFaultedPrimary(t *testing.T) {
	devs := testDevices(2)
	devs[0].set(func(d *servDevice) { d.crash = true })
	s := newServer(t, devs, fleetConfig(), serve.Config{HedgeAfter: time.Hour})
	defer s.Close()

	resp, err := s.Do(context.Background(), requestBatch(1), serve.Bulk)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Retried || resp.Device != "dev-1" {
		t.Fatalf("response not from the retry: %+v", resp)
	}
	if st := s.Stats(); st.Retries != 1 || st.Served != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHedgeAfterRetryLaunchesNothing: the retry of a faulted primary takes
// the one second-placement slot, so a hedge timer firing while the retry is
// still running adds no third attempt.
func TestHedgeAfterRetryLaunchesNothing(t *testing.T) {
	devs := testDevices(3)
	devs[0].set(func(d *servDevice) { d.crash = true })
	devs[1].set(func(d *servDevice) { d.delay = 100 * time.Millisecond })
	devs[2].set(func(d *servDevice) { d.delay = 100 * time.Millisecond })
	s := newServer(t, devs, fleetConfig(), serve.Config{HedgeAfter: 5 * time.Millisecond})
	defer s.Close()

	resp, err := s.Do(context.Background(), requestBatch(1), serve.Bulk)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Retried || resp.Hedged {
		t.Fatalf("response not from the retry: %+v", resp)
	}
	if st := s.Stats(); st.Retries != 1 || st.Hedges != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if calls := len(devs[1].callLog()) + len(devs[2].callLog()); calls != 1 {
		t.Fatalf("%d attempts after the faulted primary, want the one retry", calls)
	}
}

// TestDegradedServingFlagged: a device the monitor has confirmed Degraded
// keeps serving, but every response says so.
func TestDegradedServingFlagged(t *testing.T) {
	devs := testDevices(1)
	devs[0].set(func(d *servDevice) { d.shift = 0.04 }) // between DegradedAt and ImpairedAt
	s := newServer(t, devs, fleetConfig(), serve.Config{})
	defer s.Close()

	for i := 0; i < 2; i++ { // EscalateAfter=2 rounds to confirm
		if _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := s.Do(context.Background(), requestBatch(1), serve.Bulk)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Status != monitor.Degraded {
		t.Fatalf("degraded device served an unflagged response: %+v", resp)
	}
	if st := s.Stats(); st.ServedDegraded != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMonitorPriorityPreemptsBulk: with the lone worker pinned and both
// queues loaded, the monitor-class request must be served before the queued
// bulk ones.
func TestMonitorPriorityPreemptsBulk(t *testing.T) {
	devs := testDevices(1)
	gate := make(chan struct{})
	devs[0].set(func(d *servDevice) { d.gate = gate })
	s := newServer(t, devs, fleetConfig(), serve.Config{
		Workers: 1, DefaultDeadline: 10 * time.Second})
	defer s.Close()

	var wg sync.WaitGroup
	do := func(tag float64, prio serve.Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(context.Background(), requestBatch(tag), prio)
		}()
	}
	do(0, serve.Bulk) // pins the worker behind the gate
	waitFor(t, func() bool { return len(devs[0].callLog()) == 1 })
	do(1, serve.Bulk)
	do(2, serve.Bulk)
	do(9, serve.Monitor)
	waitFor(t, func() bool { return s.Stats().Admitted == 4 })

	close(gate)
	wg.Wait()
	order := devs[0].callLog()
	pos := map[float64]int{}
	for i, tag := range order {
		if _, seen := pos[tag]; !seen {
			pos[tag] = i
		}
	}
	if pos[9] > pos[1] || pos[9] > pos[2] {
		t.Fatalf("monitor request served at position %d, after bulk (order %v)", pos[9], order)
	}
}

// TestCloseDrainsWithoutLeaks: Close answers every admitted request, rejects
// new ones with ErrClosed, and leaves no goroutine behind.
func TestCloseDrainsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	devs := testDevices(2)
	devs[1].set(func(d *servDevice) { d.delay = 20 * time.Millisecond })
	s := newServer(t, devs, fleetConfig(), serve.Config{Workers: 2, HedgeAfter: 5 * time.Millisecond})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Do(context.Background(), requestBatch(float64(i)), serve.Bulk)
		}(i)
	}
	wg.Wait()
	s.Close()
	if _, err := s.Do(context.Background(), requestBatch(99), serve.Bulk); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Do after Close returned %v, want ErrClosed", err)
	}
	s.Close() // a second Close returns at once

	st := s.Stats()
	if st.Admitted != st.Terminal() {
		t.Fatalf("silent drops: admitted %d, terminal %d", st.Admitted, st.Terminal())
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestCloseConcurrentCallersShareOneDrain: Close must be idempotent under
// concurrent callers — exactly one drain runs, every caller (racing or late)
// blocks until it completes, and each finds admission shut once its Close
// returns.
func TestCloseConcurrentCallersShareOneDrain(t *testing.T) {
	devs := testDevices(2)
	devs[0].set(func(d *servDevice) { d.delay = 10 * time.Millisecond })
	s := newServer(t, devs, fleetConfig(), serve.Config{Workers: 2})

	var reqWG sync.WaitGroup
	for i := 0; i < 12; i++ {
		reqWG.Add(1)
		go func(i int) {
			defer reqWG.Done()
			s.Do(context.Background(), requestBatch(float64(i)), serve.Bulk)
		}(i)
	}
	waitFor(t, func() bool { return s.Stats().Admitted >= 4 })

	const closers = 8
	after := make([]error, closers)
	var closeWG sync.WaitGroup
	for i := 0; i < closers; i++ {
		closeWG.Add(1)
		go func(i int) {
			defer closeWG.Done()
			s.Close()
			_, after[i] = s.Do(context.Background(), requestBatch(-1), serve.Bulk)
		}(i)
	}
	closeWG.Wait()
	reqWG.Wait()

	for i := 0; i < closers; i++ {
		if !errors.Is(after[i], serve.ErrClosed) {
			t.Fatalf("closer %d: Do after Close returned %v, want ErrClosed", i, after[i])
		}
	}
	if st := s.Stats(); st.Admitted != st.Terminal() {
		t.Fatalf("drain left silent drops: %+v", st)
	}
}

// TestNoDevicesCarriesFleetSentinel: the ErrNoDevices the server surfaces
// must wrap the router's typed ErrNoEligibleDevice so both layers' sentinels
// match the same error.
func TestNoDevicesCarriesFleetSentinel(t *testing.T) {
	devs := testDevices(1)
	devs[0].set(func(d *servDevice) { d.crash = true })
	fcfg := fleetConfig()
	fcfg.BreakerOpenAfter = 2
	s := newServer(t, devs, fcfg, serve.Config{})
	defer s.Close()

	for i := 0; i < 2; i++ { // trip the breaker via serving faults
		s.Do(context.Background(), requestBatch(1), serve.Bulk)
	}
	_, err := s.Do(context.Background(), requestBatch(1), serve.Bulk)
	if !errors.Is(err, serve.ErrNoDevices) {
		t.Fatalf("starved fleet returned %v, want ErrNoDevices", err)
	}
	if !errors.Is(err, fleet.ErrNoEligibleDevice) {
		t.Fatalf("ErrNoDevices %v does not wrap fleet.ErrNoEligibleDevice", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (serve.Config{Workers: -1}).Validate(); err == nil {
		t.Fatal("negative Workers validated")
	}
	if err := (serve.Config{HedgeAfter: -time.Second}).Validate(); err == nil {
		t.Fatal("negative HedgeAfter validated")
	}
	if _, err := serve.New(nil, fleetConfig(), serve.Config{}, nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// waitFor polls cond with a hard 5s cap — the tests' only clock dependency.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitSettled waits until n() has not changed for 100 ms, five times the
// slowest scripted device delay.
func waitSettled(t *testing.T, n func() int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last, since := n(), time.Now()
	for time.Since(since) < 100*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("count still changing after 5s (at %d)", last)
		}
		time.Sleep(2 * time.Millisecond)
		if v := n(); v != last {
			last, since = v, time.Now()
		}
	}
}

// probsOf is net's softmax readout of x through a freshly compiled inference
// plan: a tensor of its own, which the caller may mutate.
func probsOf(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	return engine.MustCompile(net, engine.Options{}).Probs(x)
}

// stubDevice answers every batch with the same confidences, so what a
// request allocates is serve's own plus the station's copy-out.
type stubDevice struct {
	*servDevice
	infer monitor.Infer
}

func (d stubDevice) Infer() monitor.Infer { return d.infer }

// TestDoAllocations pins what Do allocates per request in steady state, for
// a caller with a context deadline and for one without: the station's copy
// of the answer (tensor, shape, data) and nothing of the request record, its
// channels, its hedge and deadline timers, its attempt closure or its input
// copy, which are all recycled (12 allocations before they were).
func TestDoAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	x := requestBatch(0.5)
	out := probsOf(testDevices(1)[0].net, x)
	dev := stubDevice{servDevice: testDevices(1)[0], infer: func(*tensor.Tensor) *tensor.Tensor { return out }}
	s, err := serve.New([]fleet.Device{dev}, fleetConfig(), serve.Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deadline, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, ctx := range []context.Context{deadline, context.Background()} {
		do := func() {
			if _, err := s.Do(ctx, x, serve.Bulk); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			do()
		}
		if n := testing.AllocsPerRun(1000, do); n > 3 {
			t.Fatalf("Do under %v: %v allocations per request, want <= 3", ctx, n)
		}
	}
}
