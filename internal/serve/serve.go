// Package serve is the concurrent inference frontend over the fleet: the
// layer that turns "a supervised pool of self-testing accelerators"
// (internal/fleet over internal/health) into something a caller can actually
// throw traffic at while the concurrent-test monitor keeps running
// underneath.
//
// The request path, end to end:
//
//   - Admission. Do is non-blocking: each priority class has a bounded
//     queue, and a full queue rejects immediately with ErrOverloaded rather
//     than letting latency build invisibly. Monitor-class traffic (test
//     patterns, health probes) has its own queue that every worker drains
//     first, so bulk saturation can never starve the monitoring scheme.
//   - Deadlines. Every request's deadline (see Deadline) is enforced by a
//     timer its record keeps, as is a canceled caller context: a request
//     that expires in the queue is answered with ErrDeadline without touching
//     a device, and one that expires mid-flight returns ErrDeadline while its
//     attempt finishes harmlessly in the background.
//   - Hedging. The first attempt lands on the router's weighted choice. If
//     it is still silent after HedgeAfter, a second attempt is launched on a
//     different device (never the same one, never a quarantined one — the
//     router guarantees both) and the first answer wins. A faulted first
//     attempt triggers the same second placement immediately.
//   - Fault feedback. Any attempt that panics or returns nil/malformed output
//     is reported into the fleet's circuit breaker via ReportServingFault —
//     serving traffic is a health sensor too, and a device that keeps eating
//     requests is quarantined without waiting for the next monitoring tick.
//     An answer with non-finite confidences faults the attempt but is not
//     reported: finite inputs can overflow a healthy model, and a device
//     whose readouts really go non-finite fails the monitor tick instead.
//   - Degraded serving. When the router places a request on a
//     Degraded-but-serving accelerator the response says so
//     (Response.Degraded) instead of failing: the paper's economics want
//     maximum useful life out of drifting silicon, and the caller decides
//     what confidence to put in the answer.
//   - Drain. Close stops admission (ErrClosed), then every already-admitted
//     request still gets its answer before Close returns; no goroutine
//     outlives it.
//
// Every admitted request terminates in exactly one of: a Response, or an
// error matching ErrDeadline, ErrNoDevices or ErrFaulted. The net chaos soak
// (internal/campaign.RunNetSoak) audits that invariant on every shard under
// injected slow readouts, mid-request crashes and deadline storms.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"reramtest/internal/fleet"
	"reramtest/internal/hwcost"
	"reramtest/internal/journal"
	"reramtest/internal/monitor"
	"reramtest/internal/tensor"
)

// Config tunes the serving frontend.
type Config struct {
	// Workers is the number of request-handling goroutines (0 → 4).
	Workers int
	// QueueBulk bounds the bulk admission queue (0 → 64).
	QueueBulk int
	// QueueMonitor bounds the monitor-priority admission queue (0 → 16).
	QueueMonitor int
	// HedgeAfter is how long the first attempt may stay silent before a
	// hedged second attempt is launched on another device (0 → 20ms).
	HedgeAfter time.Duration
	// DefaultDeadline is applied to requests whose context carries no
	// deadline (0 → 1s).
	DefaultDeadline time.Duration
}

// Validate rejects configurations the server cannot operate under.
func (c Config) Validate() error {
	if c.Workers < 0 || c.QueueBulk < 0 || c.QueueMonitor < 0 {
		return fmt.Errorf("serve: Workers/QueueBulk/QueueMonitor must be ≥ 0")
	}
	if c.HedgeAfter < 0 || c.DefaultDeadline < 0 {
		return fmt.Errorf("serve: HedgeAfter and DefaultDeadline must be ≥ 0")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueBulk == 0 {
		c.QueueBulk = 64
	}
	if c.QueueMonitor == 0 {
		c.QueueMonitor = 16
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 20 * time.Millisecond
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = time.Second
	}
	return c
}

// Response is one served inference answer. Nothing in it aliases serve's
// state or the caller's input.
type Response struct {
	// Probs is the (N, outDim) softmax confidence batch, owned by the caller
	// (copied out of the device before the device lock was released).
	Probs *tensor.Tensor
	// Device is the accelerator that produced the answer.
	Device string
	// Status is the device's confirmed health status at dispatch time.
	Status monitor.Status
	// Degraded flags an answer served from a Degraded-but-serving
	// accelerator: still within the monitor's serving envelope, but the
	// caller may want to weight its confidence accordingly.
	Degraded bool
	// Hedged: the answer came from the hedged second attempt (the primary
	// was still silent when the hedge fired and the hedge won).
	Hedged bool
	// Retried: the primary attempt faulted and this answer came from the
	// immediate retry on another device.
	Retried bool
	// Cost is the measured hardware spend of the attempt that produced this
	// answer (the winning device's serving-class counter delta; abandoned
	// hedge attempts still charge their own device but are not reported
	// here). Zero when the device is unmetered.
	Cost hwcost.Cost
}

// Stats is a snapshot of the server's lifetime counters. For a drained
// server, Admitted == Served + Deadlines + NoDevices + FaultFailures — the
// zero-silent-drops invariant (rejections at admission are counted in
// Overloads and were never admitted).
type Stats struct {
	Admitted       uint64
	Served         uint64
	ServedDegraded uint64
	Overloads      uint64
	Deadlines      uint64
	NoDevices      uint64
	FaultFailures  uint64

	Hedges  uint64 // hedged second attempts launched (slow primary)
	Retries uint64 // immediate second attempts launched (faulted primary)
}

// Terminal sums the terminal outcomes of admitted requests.
func (st Stats) Terminal() uint64 {
	return st.Served + st.Deadlines + st.NoDevices + st.FaultFailures
}

// outcome is what a worker delivers back to the blocked Do call.
type outcome struct {
	resp Response
	err  error
}

// record is one request in flight through the server, taken from the
// server's pool at admission. Do, the worker that handles it and each device
// attempt hold a reference; the last to let go drains both channels and puts
// the record back, so a request in steady state allocates none of it. It
// holds its own copy of the caller's batch: an abandoned hedge or an expired
// attempt may still be reading x after Do has returned the caller's tensor.
type record struct {
	s    *Server
	refs atomic.Int32
	ctx  context.Context
	x    *tensor.Tensor // (N, inDim) view over buf
	buf  []float64
	enq  time.Time
	done chan outcome // buffered 1; exactly one finish per request
	// resCh is buffered for every attempt that could ever write to it, so
	// abandoned attempts never leak a goroutine
	resCh chan attemptResult
	hedge *time.Timer // made on first use; stopped and drained when handle returns

	// The deadline timer, made on first use, closes expired. A fire that lost
	// its race with Stop may run after the record was reused, so expire
	// checks the clock against the current deadline under mu.
	mu       sync.Mutex
	deadline time.Time
	expired  chan struct{}
	fired    bool // expired is closed
	timer    *time.Timer

	// A request makes at most two attempts: the first placement, then one
	// hedge or retry. slots[i] is what attempt i reports besides its answer,
	// and runs[i], made with the record, runs it, so launching an attempt
	// allocates no closure.
	slots [2]attemptResult
	runs  [2]func()
}

func (s *Server) newRecord() any {
	r := &record{s: s, x: tensor.New(0, s.inDim), done: make(chan outcome, 1), resCh: make(chan attemptResult, 2),
		expired: make(chan struct{})}
	r.runs = [2]func(){func() { s.attempt(r, 0) }, func() { s.attempt(r, 1) }}
	return r
}

// admit fills a record fresh from the pool: x is copied in, the deadline
// timer is armed, and the caller and the worker each hold a reference.
func (r *record) admit(ctx context.Context, x *tensor.Tensor, deadline time.Time) {
	if len(r.buf) < x.Len() {
		r.buf = make([]float64, x.Len())
	}
	copy(r.buf, x.Data())
	r.x.ResliceRows(r.buf, x.Dim(0))
	r.ctx, r.enq = ctx, time.Now()
	r.mu.Lock()
	r.deadline = deadline
	if r.fired { // for the record's last request: remade only then
		r.expired, r.fired = make(chan struct{}), false
	}
	r.mu.Unlock()
	if d := deadline.Sub(r.enq); r.timer == nil {
		r.timer = time.AfterFunc(d, r.expire)
	} else {
		r.timer.Reset(d)
	}
	r.refs.Store(2)
}

// expire is the deadline timer's function.
func (r *record) expire() {
	r.mu.Lock()
	defer r.mu.Unlock()
	// a late fire from the record's last request finds a later deadline
	if !r.fired && !time.Now().Before(r.deadline) {
		r.fired = true
		close(r.expired)
	}
}

// err is why the request may no longer run (its deadline passed, or the
// caller's context ended), or nil while it may.
func (r *record) err() error {
	if !time.Now().Before(r.deadline) {
		return context.DeadlineExceeded
	}
	return r.ctx.Err()
}

func (r *record) finish(resp Response, err error) {
	r.done <- outcome{resp: resp, err: err}
}

// release drops one reference; the last one recycles the record.
func (r *record) release() {
	if r.refs.Add(-1) == 0 {
		r.s.recycle(r)
	}
}

// recycle puts back a record nothing holds any more, so nothing can still
// write to its channels: an outcome Do gave up waiting for and the results
// of abandoned attempts are dropped here.
func (s *Server) recycle(r *record) {
	select {
	case <-r.done:
	default:
	}
	for len(r.resCh) > 0 {
		<-r.resCh
	}
	r.timer.Stop()
	r.ctx = nil
	s.records.Put(r)
}

// Server is the concurrent serving frontend. Its exported methods are safe
// for concurrent use; it owns its fleet.Supervisor outright (all supervisor
// state mutation is serialised behind an internal lock), so callers must not
// drive the supervisor directly.
type Server struct {
	cfg   Config
	sup   *fleet.Supervisor
	inDim int

	// backendMu serialises supervisor state mutation: ticks and serving-fault
	// reports. The router inside the supervisor has its own lock, so the hot
	// dispatch path never touches backendMu.
	backendMu sync.Mutex

	qMon, qBulk chan *record
	records     sync.Pool    // *record
	admitMu     sync.RWMutex // guards closed + the enqueue-vs-close race
	closed      bool
	closeOnce   sync.Once

	rootCtx context.Context
	cancel  context.CancelFunc

	workerWG  sync.WaitGroup
	attemptWG sync.WaitGroup

	admitted, served, servedDegraded atomic.Uint64
	overloads, deadlines             atomic.Uint64
	noDevices, faultFailures         atomic.Uint64
	hedges, retries                  atomic.Uint64
}

// New commissions a fleet supervisor over devices (the fleet wraps each in a
// Station, so monitoring, repair and serving serialise per device and every
// charge is booked by the lock holder), journaling
// through store (nil: memory-only), and starts the worker pool. If
// commissioning the fleet cannot be journaled (the store's disk is already
// faulty) the server still starts, running memory-only with Unjournaled set,
// and the returned error matches fleet.ErrUnjournaled so the operator can
// decide whether that is acceptable.
func New(devices []fleet.Device, fcfg fleet.Config, scfg Config, store *journal.Store) (*Server, error) {
	if err := scfg.Validate(); err != nil {
		return nil, err
	}
	scfg = scfg.withDefaults()
	if len(devices) == 0 {
		return nil, errors.New("serve: no devices")
	}
	sup, err := fleet.New(devices, fcfg, store)
	if err != nil && !errors.Is(err, fleet.ErrUnjournaled) {
		return nil, err
	}

	rootCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     scfg,
		sup:     sup,
		inDim:   devices[0].Reference().InDim(),
		qMon:    make(chan *record, scfg.QueueMonitor),
		qBulk:   make(chan *record, scfg.QueueBulk),
		rootCtx: rootCtx,
		cancel:  cancel,
	}
	s.records.New = s.newRecord
	for i := 0; i < scfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, err
}

// Do is DoBy without a deadline of the request's own.
func (s *Server) Do(ctx context.Context, x *tensor.Tensor, prio Priority) (Response, error) {
	return s.DoBy(ctx, x, prio, time.Time{})
}

// DoBy submits one (N, inDim) inference batch that expires at Deadline(ctx,
// deadline, DefaultDeadline) and blocks until it terminates: a Response, or
// an error matching ErrOverloaded, ErrClosed, ErrDeadline, ErrNoDevices or
// ErrFaulted. DoBy copies x at admission and never touches it again, so
// when it returns the caller owns x outright — it may reuse or
// overwrite it while attempts abandoned by a hedge or a deadline still run
// on serve's copy. Safe for concurrent use.
func (s *Server) DoBy(ctx context.Context, x *tensor.Tensor, prio Priority, deadline time.Time) (Response, error) {
	if x == nil || x.Rank() != 2 || x.Dim(1) != s.inDim {
		return Response{}, fmt.Errorf("serve: request batch must be (N, %d)", s.inDim)
	}
	r := s.records.Get().(*record)
	r.admit(ctx, x, Deadline(ctx, deadline, s.cfg.DefaultDeadline))
	q := s.qBulk
	if prio == Monitor {
		q = s.qMon
	}

	// enqueue under the admission read-lock so Close can never close a
	// channel with a send in flight
	s.admitMu.RLock()
	if s.closed {
		s.admitMu.RUnlock()
		s.recycle(r)
		return Response{}, fmt.Errorf("serve: rejected at admission: %w", ErrClosed)
	}
	select {
	case q <- r:
		s.admitMu.RUnlock()
	default:
		s.admitMu.RUnlock()
		s.recycle(r)
		s.overloads.Add(1)
		return Response{}, fmt.Errorf("serve: %v queue at capacity: %w", prio, ErrOverloaded)
	}
	s.admitted.Add(1)

	var o outcome
	select {
	case o = <-r.done:
	// the worker, or its background attempt, finishes into the buffered done
	// channel, and the last reference to the record drops it
	case <-r.expired:
		o.err = fmt.Errorf("serve: %v: %w", r.err(), ErrDeadline)
	case <-r.ctx.Done():
		o.err = fmt.Errorf("serve: %v: %w", r.err(), ErrDeadline)
	}
	r.release()
	s.countTerminal(o)
	return o.resp, o.err
}

// Deadline is when a request expires: the earlier of deadline and ctx's
// deadline (the zero time is none), or def from now when neither is set.
func Deadline(ctx context.Context, deadline time.Time, def time.Duration) time.Time {
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if deadline.IsZero() {
		deadline = time.Now().Add(def)
	}
	return deadline
}

// deadlineErr ends a request that expired or was canceled mid-flight.
func (r *record) deadlineErr(outstanding int) error {
	return fmt.Errorf("serve: %v with %d attempt(s) outstanding: %w", r.err(), outstanding, ErrDeadline)
}

// countTerminal attributes exactly one terminal counter per admitted request.
func (s *Server) countTerminal(o outcome) {
	switch {
	case o.err == nil:
		s.served.Add(1)
		if o.resp.Degraded {
			s.servedDegraded.Add(1)
		}
	case errors.Is(o.err, ErrDeadline):
		s.deadlines.Add(1)
	case errors.Is(o.err, ErrNoDevices):
		s.noDevices.Add(1)
	default:
		s.faultFailures.Add(1)
	}
}

// worker pulls records (monitor queue first) and handles them until both
// queues are closed and drained.
func (s *Server) worker() {
	defer s.workerWG.Done()
	qm, qb := s.qMon, s.qBulk
	for {
		// priority pass: drain monitor-class work first, non-blocking
		if qm != nil {
			select {
			case p, ok := <-qm:
				if !ok {
					qm = nil
					break
				}
				s.handle(p)
				continue
			default:
			}
		}
		if qm == nil && qb == nil {
			return
		}
		// blocking pass over whichever queues remain open (a nil channel
		// never fires, which is how a closed-and-drained queue drops out)
		select {
		case p, ok := <-qm:
			if !ok {
				qm = nil
				continue
			}
			s.handle(p)
		case p, ok := <-qb:
			if !ok {
				qb = nil
				continue
			}
			s.handle(p)
		}
	}
}

// attemptResult is one device attempt's outcome.
type attemptResult struct {
	probs  *tensor.Tensor
	device string
	status monitor.Status
	hedge  bool
	retry  bool
	cost   hwcost.Cost
	err    error
}

// handle runs one admitted request to termination, then lets go of it.
func (s *Server) handle(p *record) {
	defer p.release()
	if p.err() != nil {
		p.finish(Response{}, fmt.Errorf("serve: expired in queue after %v: %w",
			time.Since(p.enq).Round(time.Microsecond), ErrDeadline))
		return
	}
	first, st1, derr := s.sup.DispatchAvoidingErr("")
	if derr != nil {
		// both sentinels stay matchable: serve.ErrNoDevices for frontend
		// callers, fleet.ErrNoEligibleDevice (with the router's reason) for
		// anyone diagnosing why the fleet had nothing to offer
		p.finish(Response{}, fmt.Errorf("serve: %w: %w", ErrNoDevices, derr))
		return
	}
	s.launchAttempt(p, 0, first, st1, false, false)
	if p.hedge == nil {
		p.hedge = time.NewTimer(s.cfg.HedgeAfter)
	} else {
		p.hedge.Reset(s.cfg.HedgeAfter)
	}
	defer stopTimer(p.hedge)

	outstanding, second := 1, false
	var firstErr error
	for {
		select {
		case r := <-p.resCh:
			outstanding--
			if r.err == nil {
				p.finish(Response{
					Probs:    r.probs,
					Device:   r.device,
					Status:   r.status,
					Degraded: r.status == monitor.Degraded,
					Hedged:   r.hedge,
					Retried:  r.retry,
					Cost:     r.cost,
				}, nil)
				return
			}
			if firstErr == nil {
				firstErr = r.err
			}
			// faulted: one immediate second placement on a different device,
			// unless a hedge already claimed the retry slot
			if !second && p.err() == nil {
				if id2, st2, err2 := s.sup.DispatchAvoidingErr(first); err2 == nil {
					second = true
					s.retries.Add(1)
					s.launchAttempt(p, 1, id2, st2, false, true)
					outstanding++
					continue
				}
			}
			if outstanding == 0 {
				p.finish(Response{}, fmt.Errorf("serve: %v: %w", firstErr, ErrFaulted))
				return
			}
		case <-p.hedge.C:
			if second {
				continue
			}
			if id2, st2, err2 := s.sup.DispatchAvoidingErr(first); err2 == nil {
				second = true
				s.hedges.Add(1)
				s.launchAttempt(p, 1, id2, st2, true, false)
				outstanding++
			}
		case <-p.expired:
			p.finish(Response{}, p.deadlineErr(outstanding))
			return
		case <-p.ctx.Done():
			p.finish(Response{}, p.deadlineErr(outstanding))
			return
		}
	}
}

// stopTimer stops t and drains a fire it did not stop, so the next Reset
// starts clean (go.mod's go 1.22 keeps timers' channels asynchronous).
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// launchAttempt runs attempt i of p, a placement on device id, in its own
// goroutine holding a reference to p. The attempt is not cancelable
// mid-inference (a device readout cannot be interrupted); an abandoned
// attempt completes into the buffered result channel, releases its router
// slot and still reports a fault into the breaker if it produced one.
func (s *Server) launchAttempt(p *record, i int, id string, status monitor.Status, hedge, retry bool) {
	p.slots[i] = attemptResult{device: id, status: status, hedge: hedge, retry: retry}
	p.refs.Add(1)
	s.attemptWG.Add(1)
	go p.runs[i]()
}

// attempt is the body of attempt i of p.
func (s *Server) attempt(p *record, i int) {
	defer s.attemptWG.Done()
	defer p.release()
	r := p.slots[i]
	defer s.sup.Complete(r.device)
	r.probs, r.cost, r.err = s.runOn(r.device, p.x)
	if r.err != nil {
		s.reportFault(r.device)
	} else if !finite(r.probs) {
		// not reported: finite inputs can overflow a healthy model, so a
		// non-finite answer indicts the request as much as the device. A
		// device whose readouts really go non-finite fails the monitor tick's
		// readout validation, and that sensor fault trips the breaker.
		r.probs, r.err = nil, fmt.Errorf("serve: device %s returned non-finite confidences", r.device)
	}
	p.resCh <- r
}

// finite reports whether every confidence in probs is a finite number.
func finite(probs *tensor.Tensor) bool {
	for _, v := range probs.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// runOn executes one guarded serving inference on device id, checks the
// answer's shape and reports its measured hardware spend.
func (s *Server) runOn(id string, x *tensor.Tensor) (probs *tensor.Tensor, cost hwcost.Cost, err error) {
	st := s.sup.Station(id)
	defer func() {
		if r := recover(); r != nil {
			probs, err = nil, fmt.Errorf("serve: device %s panicked mid-request: %v", id, r)
		}
	}()
	out, cost := st.ServeInfer(x)
	if out == nil {
		return nil, cost, fmt.Errorf("serve: device %s returned no output", id)
	}
	if out.Rank() != 2 || out.Dim(0) != x.Dim(0) {
		return nil, cost, fmt.Errorf("serve: device %s returned a malformed batch", id)
	}
	return out, cost, nil
}

// reportFault feeds one serving-path fault into the fleet's breaker.
func (s *Server) reportFault(id string) {
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	s.sup.ReportServingFault(id)
}

// Tick runs one supervised monitoring round across the fleet, serialised
// against serving-fault reports. Closing the server cancels the tick's
// context, so a drain never waits out a device's full backoff schedule.
func (s *Server) Tick() ([]fleet.RoundResult, error) {
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	return s.sup.Tick(s.rootCtx)
}

// Serving returns the device IDs currently eligible for traffic.
func (s *Server) Serving() []string {
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	return s.sup.Serving()
}

// Quarantined returns the device IDs currently withheld from traffic.
func (s *Server) Quarantined() []string {
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	return s.sup.Quarantined()
}

// Retired returns the device IDs permanently withdrawn from service. When
// every device is retired the server is starved for good — the signal a
// sharded frontend uses to drain this shard and rebalance its tenants.
func (s *Server) Retired() []string {
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	return s.sup.Retired()
}

// Unjournaled reports whether the backend supervisor has abandoned its
// journal after a persistent disk fault and is running memory-only. Always
// false for a server built without a store.
func (s *Server) Unjournaled() bool {
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	return s.sup.Unjournaled()
}

// Devices returns every commissioned device ID in commissioning order
// (immutable after construction, so this never contends with the backend).
func (s *Server) Devices() []string { return s.sup.DeviceIDs() }

// Stats snapshots the lifetime counters.
func (s *Server) Stats() Stats {
	return Stats{
		Admitted:       s.admitted.Load(),
		Served:         s.served.Load(),
		ServedDegraded: s.servedDegraded.Load(),
		Overloads:      s.overloads.Load(),
		Deadlines:      s.deadlines.Load(),
		NoDevices:      s.noDevices.Load(),
		FaultFailures:  s.faultFailures.Load(),
		Hedges:         s.hedges.Load(),
		Retries:        s.retries.Load(),
	}
}

// CostStats snapshots every station's cumulative hardware spend by
// attribution class, keyed by device ID. Counters are read live (atomic
// loads concurrent with serving); unmetered devices report zero.
func (s *Server) CostStats() map[string]hwcost.CostBreakdown {
	ids := s.sup.DeviceIDs()
	out := make(map[string]hwcost.CostBreakdown, len(ids))
	for _, id := range ids {
		out[id] = s.sup.Station(id).CostCounter().Snapshot()
	}
	return out
}

// Station is fleet.Station, the per-device owner every fleet commissions,
// kept under this name for callers that drive a standalone device through
// the serving path.
type Station = fleet.Station

// NewStation wraps dev in a fleet.Station (see fleet.NewStation).
func NewStation(dev fleet.Device) *Station { return fleet.NewStation(dev) }

// Close stops admission, drains every already-admitted request (each one
// still receives its Response or typed error), waits for all background
// attempts to land, and returns. Close is idempotent and safe for concurrent
// callers: exactly one caller performs the drain, every other call — racing
// or later — blocks until that drain completes, so no caller can observe a
// half-drained server or race the queue teardown.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.admitMu.Lock()
		s.closed = true
		s.admitMu.Unlock()
		s.cancel() // cuts any in-flight tick's backoff sleeps
		close(s.qMon)
		close(s.qBulk)
		s.workerWG.Wait()
		s.attemptWG.Wait()
	})
}
