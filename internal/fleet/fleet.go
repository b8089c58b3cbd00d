// Package fleet scales the hardened single-accelerator runtime
// (internal/health) to the deployment the paper's economics assume: a
// datacenter of ReRAM accelerators, each drifting and failing independently,
// monitored concurrently with live traffic. A Supervisor runs one
// health.Runtime per accelerator across a bounded worker pool, trips a
// per-device circuit breaker when the sensor path itself keeps failing
// (quarantining the device instead of burning retry budgets), routes
// inference requests only to Healthy/Degraded-but-serving devices with
// graceful load shedding, and journals every durable state transition
// through internal/journal so a supervisor crash loses nothing: replaying
// the journal reconstructs the fleet's confirmed statuses, hysteresis
// streaks, repair budgets and breaker positions exactly. Every device is
// commissioned behind a Station, its one owner: monitoring, repair and
// serving take the device through the station's lock, and the lock holder
// books what each call spent to its cost class.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"reramtest/internal/health"
	"reramtest/internal/hwcost"
	"reramtest/internal/journal"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/testgen"
)

// Device is one accelerator under fleet supervision. Implementations must
// tolerate their methods being called from a worker goroutine, but never
// from more than one at a time (the supervisor partitions work per device).
type Device interface {
	// ID names the device uniquely within the fleet.
	ID() string
	// Infer is the monitored readout path. Campaign-backed devices route it
	// through a per-plant batch inference engine (internal/engine): the whole
	// pattern set flows through preallocated per-layer workspaces in one
	// call, bit-identical to a per-sample forward, so every journaled
	// distance and fingerprint is unchanged while the per-tick readout cost
	// drops. Engines are single-goroutine objects, which is exactly the
	// one-worker-per-device contract above.
	Infer() monitor.Infer
	// Repairer is this device's repair ladder (nil disables repair).
	Repairer() health.Repairer
	// Reference is the model the device's monitor must be commissioned
	// against right now (it changes after a retraining repair).
	Reference() *nn.Network
	// Patterns is the concurrent-test stimulus set.
	Patterns() *testgen.PatternSet
}

// CostMetered is the optional Device facet exposing the hardware cost
// counter the device's engines charge. When a device implements it, the
// device's Station books every charge to the class of the locked path that
// made it (monitor, serving or repair), and the supervisor journals the
// counter's snapshot in every tick record and restores it on Resume.
type CostMetered interface {
	CostCounter() *hwcost.Counter
}

// Config tunes the fleet supervisor.
type Config struct {
	// Workers bounds the tick worker pool (0 → min(4, fleet size)).
	Workers int
	// Health tunes each device's hardened runtime.
	Health health.Config
	// Monitor sets each device's decision thresholds.
	Monitor monitor.Config
	// BreakerOpenAfter is how many consecutive sensor-fault rounds trip a
	// device's breaker open (0 → 2).
	BreakerOpenAfter int
	// BreakerCooldown is how many rounds an open breaker waits before a
	// half-open probe (0 → 3).
	BreakerCooldown int
	// RepairBudget is each device's lifetime repair allowance in strategy
	// cost units (repair.CostScrub, repair.CostRemap, …; one unit per rung of
	// a repair.Escalation ladder), so a cheap scrub spends less lifetime than
	// a cloud-edge retrain; a device is retired to hardware service when the
	// cheapest rung that could still help no longer fits (0 → 6).
	RepairBudget int
	// MinServing is the load-shedding floor: the router refuses to dispatch
	// when fewer devices serve (0 → 1).
	MinServing int
	// CompactEvery is the auto-compaction cadence in ticks when the fleet
	// journals through a journal.Store: every CompactEvery-th tick folds the
	// WAL into a fresh snapshot generation even before the size threshold
	// (journal.StoreConfig.CompactBytes) arms. 0 leaves compaction purely
	// size-triggered. Ignored by a memory-only supervisor.
	CompactEvery int
}

// DefaultConfig returns fleet-reasonable parameters over the default
// hardened runtime.
func DefaultConfig() Config {
	return Config{
		Health:           health.DefaultConfig(),
		Monitor:          monitor.DefaultConfig(),
		BreakerOpenAfter: 2,
		BreakerCooldown:  3,
		RepairBudget:     6,
		MinServing:       1,
	}
}

// Validate rejects configurations the supervisor cannot operate under.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("fleet: Workers must be ≥ 0, got %d", c.Workers)
	}
	if c.BreakerOpenAfter < 0 || c.BreakerCooldown < 0 {
		return fmt.Errorf("fleet: breaker parameters must be ≥ 0")
	}
	if c.RepairBudget < 0 {
		return fmt.Errorf("fleet: RepairBudget must be ≥ 0, got %d", c.RepairBudget)
	}
	if c.MinServing < 0 {
		return fmt.Errorf("fleet: MinServing must be ≥ 0, got %d", c.MinServing)
	}
	if c.CompactEvery < 0 {
		return fmt.Errorf("fleet: CompactEvery must be ≥ 0, got %d", c.CompactEvery)
	}
	if err := c.Health.Validate(); err != nil {
		return err
	}
	return c.Monitor.Validate()
}

// withDefaults fills zero fields.
func (c Config) withDefaults(fleetSize int) Config {
	if c.Workers == 0 {
		c.Workers = 4
		if fleetSize < 4 {
			c.Workers = fleetSize
		}
	}
	if c.BreakerOpenAfter == 0 {
		c.BreakerOpenAfter = 2
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 3
	}
	if c.RepairBudget == 0 {
		c.RepairBudget = 6
	}
	if c.MinServing == 0 {
		c.MinServing = 1
	}
	return c
}

// deviceState is the supervisor's per-device bookkeeping.
type deviceState struct {
	dev       *Station
	rt        *health.Runtime
	budget    int
	breaker   Breaker
	retired   bool
	decisions []RepairDecision // most recent maxDecisionLog strategy choices
}

// logDecision appends one repair decision, keeping only the newest
// maxDecisionLog entries.
func (ds *deviceState) logDecision(d RepairDecision) {
	ds.decisions = append(ds.decisions, d)
	if len(ds.decisions) > maxDecisionLog {
		ds.decisions = ds.decisions[len(ds.decisions)-maxDecisionLog:]
	}
}

// RoundResult is one device's outcome for one fleet tick.
type RoundResult struct {
	Device    string
	Round     int
	Confirmed monitor.Status
	Raw       monitor.Status

	SensorFault bool
	Rejected    int

	// Quarantined: the breaker was open (or the device retired) this round,
	// so no supervised monitoring ran.
	Quarantined bool
	// Probe/ProbeOK: a half-open breaker probe ran this round and its
	// outcome.
	Probe   bool
	ProbeOK bool
	// Tripped: this round's sensor fault opened the breaker.
	Tripped bool

	Repaired, Recovered, GaveUp bool
	Attempts                    int // repair cycles spent this round
	CostSpent                   int // budget units charged this round
	BudgetLeft                  int
	Retired                     bool
}

// String renders the result on one line.
func (r RoundResult) String() string {
	switch {
	case r.Retired:
		return fmt.Sprintf("%s r%d: RETIRED (budget exhausted) confirmed=%s", r.Device, r.Round, r.Confirmed)
	case r.Probe:
		verdict := "failed, breaker re-opened"
		if r.ProbeOK {
			verdict = "ok, breaker closed"
		}
		return fmt.Sprintf("%s r%d: quarantine probe %s", r.Device, r.Round, verdict)
	case r.Tripped:
		return fmt.Sprintf("%s r%d: raw=%s sensor fault → breaker TRIPPED, quarantined", r.Device, r.Round, r.Raw)
	case r.Quarantined:
		return fmt.Sprintf("%s r%d: quarantined (breaker open)", r.Device, r.Round)
	default:
		extra := ""
		if r.Repaired {
			extra = fmt.Sprintf(" repaired(attempts=%d recovered=%v budgetLeft=%d)", r.Attempts, r.Recovered, r.BudgetLeft)
		}
		return fmt.Sprintf("%s r%d: confirmed=%s raw=%s%s", r.Device, r.Round, r.Confirmed, r.Raw, extra)
	}
}

// ErrUnjournaled marks the moment a supervisor loses its journal to a
// persistent disk fault and degrades to memory-only operation: the fleet
// keeps supervising and serving — availability over durability — but a crash
// from here on loses everything since the last successful group commit. The
// error is returned exactly once (by the New, Tick or compaction that hit
// the fault); afterwards the condition is visible through Unjournaled and
// JournalError, and surfaces operationally via /statsz.
var ErrUnjournaled = errors.New("fleet: journal lost to disk fault — supervising memory-only")

// Supervisor runs the fleet. It is not safe for concurrent use: Tick,
// Dispatch and Complete belong to one owner goroutine (the internal worker
// pool never escapes a Tick call).
type Supervisor struct {
	cfg     Config
	store   *journal.Store // nil: memory-only
	order   []string
	states  map[string]*deviceState
	router  *Router
	round   int
	resumes int

	// prevSnapRound is the round of the newest valid snapshot generation:
	// the next compaction keeps WAL records strictly after it, which is what
	// makes a fallback to that generation lossless (see journal.Store).
	prevSnapRound int
	// unjournaled/journalErr: degrade-to-memory state (see ErrUnjournaled).
	unjournaled bool
	journalErr  error
	// compactErr is the last compaction failure that did NOT poison the WAL
	// (e.g. a torn snapshot rename) — journaling continues, compaction will
	// be retried, operators can see the condition.
	compactErr error
}

// ErrStoreHasHistory is returned by New when the store already holds a
// fleet's journal. Calling New on it would restart the rounds at 0 below
// the stored history — the new life's records sort under the old snapshot's
// sequence and are lost on the next recovery — so the caller must Resume.
var ErrStoreHasHistory = errors.New("fleet: store already holds a journal — use Resume with what OpenStore recovered")

// New commissions a supervisor over devices, journaling through store. A nil
// store is memory-only (acceptable for tests and throwaway sims, never for
// deployment). The commissioning itself is journaled so a fleet that crashes
// before its first tick still replays; if that first record cannot be
// journaled (the disk is already faulting), the supervisor is still returned,
// live but memory-only, alongside an error matching ErrUnjournaled — the
// caller chooses between refusing to start and serving without durability. A
// store that is not empty is refused with ErrStoreHasHistory.
func New(devices []Device, cfg Config, store *journal.Store) (*Supervisor, error) {
	if store != nil && (store.Size() > 0 || store.Generation() > 0) {
		return nil, fmt.Errorf("%w (%s: %d WAL bytes, snapshot generation %d)",
			ErrStoreHasHistory, store.Path(), store.Size(), store.Generation())
	}
	s, err := build(devices, cfg, store)
	if err != nil {
		return nil, err
	}
	if err := s.appendRecord(recordCommission); err != nil {
		if errors.Is(err, ErrUnjournaled) {
			return s, err
		}
		return nil, err
	}
	return s, nil
}

// Resume reconstructs a supervisor from what journal.OpenStore recovered of
// a crashed predecessor (pass the reopened store so journaling continues):
// the newest valid snapshot generation is folded first, then the WAL tail
// past it (ReplayRecovered); a store that has not compacted yet resumes from
// its records alone. Every journaled device must be present in devices and
// its freshly captured commission fingerprint must match the journaled one —
// a mismatch means the monitor would be comparing the accelerator against a
// model the journal was not written for, and the resume is refused. Devices
// absent from the journal are commissioned fresh.
func Resume(devices []Device, cfg Config, store *journal.Store, rec journal.Recovered) (*Supervisor, error) {
	snaps, round, err := ReplayRecovered(rec)
	if err != nil {
		return nil, err
	}
	s, err := build(devices, cfg, store)
	if err != nil {
		return nil, err
	}
	if rec.Snapshot != nil {
		s.prevSnapRound = int(rec.SnapshotSeq)
	}
	if err := s.restore(snaps, round); err != nil {
		return nil, err
	}
	return s, nil
}

// restore folds replayed snapshots into a freshly built supervisor.
func (s *Supervisor) restore(snaps map[string]DeviceSnapshot, round int) error {
	s.round = round
	s.resumes = 1
	for id, snap := range snaps {
		ds, ok := s.states[id]
		if !ok {
			return fmt.Errorf("fleet: journal names device %q not present in the fleet", id)
		}
		if got := ds.rt.Monitor().Fingerprint(); got != snap.Fingerprint {
			return fmt.Errorf("fleet: device %q commission fingerprint %x does not match journaled %x — wrong reference model",
				id, got, snap.Fingerprint)
		}
		if err := ds.rt.RestoreState(snap.State); err != nil {
			return fmt.Errorf("fleet: device %q: %w", id, err)
		}
		ds.budget = snap.Budget
		ds.breaker = snap.Breaker
		ds.retired = snap.Retired
		ds.decisions = append([]RepairDecision(nil), snap.Decisions...)
		// the journaled spend is the durable truth: charges after the last
		// group commit died with the crash, exactly like every other field
		ds.dev.ctr.Restore(snap.Cost)
	}
	s.router.Update(s.servingEntries())
	return nil
}

// build commissions runtimes without journaling.
func build(devices []Device, cfg Config, store *journal.Store) (*Supervisor, error) {
	if len(devices) == 0 {
		return nil, errors.New("fleet: no devices")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinServing > len(devices) {
		// an impossible load-shedding floor would make the router shed every
		// request forever — a config bug better rejected at commissioning than
		// discovered as a 100% error rate in production
		return nil, fmt.Errorf("fleet: MinServing %d exceeds fleet size %d — the router could never dispatch",
			cfg.MinServing, len(devices))
	}
	cfg = cfg.withDefaults(len(devices))
	s := &Supervisor{
		cfg:           cfg,
		store:         store,
		states:        make(map[string]*deviceState, len(devices)),
		router:        NewRouter(cfg.MinServing),
		prevSnapRound: -1,
	}
	for _, dev := range devices {
		id := dev.ID()
		if id == "" {
			return nil, errors.New("fleet: device with empty ID")
		}
		if _, dup := s.states[id]; dup {
			return nil, fmt.Errorf("fleet: duplicate device ID %q", id)
		}
		mon, err := monitor.New(dev.Reference(), dev.Patterns(), nil, cfg.Monitor)
		if err != nil {
			return nil, fmt.Errorf("fleet: commission %s: %w", id, err)
		}
		rt, err := health.New(mon, cfg.Health)
		if err != nil {
			return nil, fmt.Errorf("fleet: commission %s: %w", id, err)
		}
		st, ok := dev.(*Station)
		if !ok {
			st = NewStation(dev)
		}
		s.order = append(s.order, id)
		s.states[id] = &deviceState{dev: st, rt: rt, budget: cfg.RepairBudget}
	}
	s.router.Update(s.servingEntries())
	return s, nil
}

// Tick runs one supervised monitoring round across the fleet: every device
// concurrently (bounded by cfg.Workers), then one atomic group-commit
// journal record, then a router update. Results are returned in
// commissioning order. A journaling failure (ErrUnjournaled) is returned
// after the round's state is already updated in memory — the caller must
// treat it as fatal for durability guarantees.
func (s *Supervisor) Tick() ([]RoundResult, error) { return s.TickCtx(context.Background()) }

// TickCtx is Tick with a cancellation context, plumbed into every device's
// supervised round (health.Runtime.Supervise): a ctx canceled mid-tick cuts
// readout retry/backoff sleeps and stops repair escalation between attempts,
// so a draining frontend is never stuck behind a full backoff schedule. The
// round still completes structurally — every device produces a result and
// the tick is journaled — because a half-recorded tick would be worse than a
// slow one.
func (s *Supervisor) TickCtx(ctx context.Context) ([]RoundResult, error) {
	s.round++
	results := make([]RoundResult, len(s.order))

	var wg sync.WaitGroup
	sem := make(chan struct{}, s.cfg.Workers)
	for i, id := range s.order {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, ds *deviceState) {
			defer func() { <-sem; wg.Done() }()
			results[i] = s.tickDevice(ctx, ds)
		}(i, s.states[id])
	}
	wg.Wait()

	err := s.appendRecord(recordTick)
	if err == nil {
		err = s.maybeCompact()
	}
	s.router.Update(s.servingEntries())
	return results, err
}

// tickDevice runs one device's share of a tick. It touches only ds (and the
// device behind it), so devices proceed in parallel safely.
func (s *Supervisor) tickDevice(ctx context.Context, ds *deviceState) RoundResult {
	res := RoundResult{Device: ds.dev.ID(), Round: s.round}

	if ds.retired {
		res.Quarantined, res.Retired = true, true
		res.Confirmed = ds.rt.Confirmed()
		res.BudgetLeft = ds.budget
		return res
	}

	switch ds.breaker.State {
	case BreakerOpen:
		if !ds.breaker.Due(s.round, s.cfg.BreakerCooldown) {
			res.Quarantined = true
			res.Confirmed = ds.rt.Confirmed()
			res.BudgetLeft = ds.budget
			return res
		}
		ds.breaker.BeginProbe()
		fallthrough
	case BreakerHalfOpen:
		// cooled down: one cheap single-attempt probe instead of a full
		// retry-burning round
		res.Probe = true
		err := ds.rt.Probe(ds.dev.Infer())
		res.ProbeOK = err == nil
		ds.breaker.ProbeResult(res.ProbeOK, s.round)
		res.Quarantined = !res.ProbeOK
		res.Confirmed = ds.rt.Confirmed()
		res.BudgetLeft = ds.budget
		return res
	}

	// the whole remaining lifetime budget is granted: the runtime caps its
	// own spend (cost units, and MaxRepairAttempts cycles) and reports the
	// actual charge back in Episode.CostSpent
	ep := ds.rt.Supervise(ctx, ds.dev.Infer(), ds.dev.Repairer(), ds.budget)
	ds.budget -= ep.CostSpent
	for _, att := range ep.Attempts {
		ds.logDecision(RepairDecision{
			Round:    s.round,
			Strategy: att.Strategy,
			Cost:     att.Cost,
			Verified: att.Verified,
			Failed:   att.ApplyErr != nil,
		})
	}

	res.Confirmed = ds.rt.Confirmed()
	res.Raw = ep.Trigger.Raw
	res.SensorFault = ep.Trigger.SensorFault
	res.Rejected = ep.Trigger.Rejected
	res.Repaired = ep.Repaired()
	res.Recovered = ep.Recovered
	res.GaveUp = ep.GaveUp
	res.Attempts = len(ep.Attempts)
	res.CostSpent = ep.CostSpent
	res.BudgetLeft = ds.budget

	res.Tripped = ds.breaker.ObserveRound(ep.Trigger.SensorFault, s.round, s.cfg.BreakerOpenAfter)
	res.Quarantined = res.Tripped
	if ep.GaveUp && (ep.RetireAdvised || ds.budget <= 0) {
		// either the lifetime budget is gone, or the runtime determined no
		// applicable strategy fits what remains: permanent quarantine,
		// hardware service required
		ds.retired = true
		res.Retired = true
	}
	return res
}

// currentRecord captures the fleet's full durable state as one record of the
// given kind.
func (s *Supervisor) currentRecord(kind string) Record {
	rec := Record{Type: kind, Round: s.round, Devices: make([]DeviceRecord, 0, len(s.order))}
	for _, id := range s.order {
		ds := s.states[id]
		rec.Devices = append(rec.Devices, DeviceRecord{
			Device:      id,
			Fingerprint: ds.rt.Monitor().Fingerprint(),
			State:       ds.rt.ExportState(),
			Budget:      ds.budget,
			Breaker:     ds.breaker,
			Retired:     ds.retired,
			Decisions:   append([]RepairDecision(nil), ds.decisions...),
			Cost:        ds.dev.ctr.Snapshot(),
		})
	}
	return rec
}

// Checkpoint renders the fleet's full durable state as one snapshot-record
// payload — what Compact publishes as a snapshot generation, and what
// operators can pull for an out-of-band state dump.
func (s *Supervisor) Checkpoint() ([]byte, error) {
	return encodeRecord(s.currentRecord(recordSnapshot))
}

// appendRecord journals the fleet's full durable state as one atomic record
// and syncs it to stable storage (group commit). A journaling failure
// degrades the supervisor to memory-only operation (see ErrUnjournaled)
// instead of propagating raw I/O errors forever.
func (s *Supervisor) appendRecord(kind string) error {
	if s.store == nil || s.unjournaled {
		return nil
	}
	payload, err := encodeRecord(s.currentRecord(kind))
	if err != nil {
		return err
	}
	if err := s.store.Append(payload); err != nil {
		return s.degrade(err)
	}
	if err := s.store.Sync(); err != nil {
		return s.degrade(err)
	}
	return nil
}

// degrade flips the supervisor into memory-only mode and returns the
// one-time ErrUnjournaled notification.
func (s *Supervisor) degrade(cause error) error {
	s.unjournaled = true
	s.journalErr = cause
	return fmt.Errorf("%w (cause: %v)", ErrUnjournaled, cause)
}

// maybeCompact runs auto-compaction when the WAL crossed its size threshold
// or the configured tick cadence came due.
func (s *Supervisor) maybeCompact() error {
	if s.store == nil || s.unjournaled {
		return nil
	}
	due := s.store.ShouldCompact()
	if s.cfg.CompactEvery > 0 && s.round > 0 && s.round%s.cfg.CompactEvery == 0 {
		due = true
	}
	if !due {
		return nil
	}
	return s.CompactNow()
}

// CompactNow folds the current fleet state into a fresh snapshot generation
// and rewrites the WAL to hold only the records after the previous
// generation — the retention that makes a one-generation fallback lossless.
// A failure that leaves the WAL healthy (say, a torn snapshot rename) is
// returned and remembered (CompactionError) but journaling continues; a
// failure that poisons the WAL degrades to memory-only like any other
// journaling loss.
func (s *Supervisor) CompactNow() error {
	if s.store == nil {
		return errors.New("fleet: CompactNow without a journal.Store")
	}
	if s.unjournaled {
		return fmt.Errorf("fleet: compact: %w", ErrUnjournaled)
	}
	payload, err := s.Checkpoint()
	if err != nil {
		return err
	}
	prev := s.prevSnapRound
	err = s.store.Compact(payload, uint64(s.round), func(rec []byte) bool {
		return recordRound(rec) > prev
	})
	if err != nil {
		if s.store.Err() != nil {
			return s.degrade(err)
		}
		s.compactErr = err
		return err
	}
	s.prevSnapRound = s.round
	s.compactErr = nil
	return nil
}

// servingEntries lists the devices eligible to serve traffic right now:
// breaker closed, not retired, confirmed status at worst Degraded.
func (s *Supervisor) servingEntries() []RouteEntry {
	entries := make([]RouteEntry, 0, len(s.order))
	for _, id := range s.order {
		ds := s.states[id]
		if ds.retired || ds.breaker.State != BreakerClosed {
			continue
		}
		if st := ds.rt.Confirmed(); st <= monitor.Degraded {
			entries = append(entries, RouteEntry{ID: id, Status: st})
		}
	}
	return entries
}

// Station returns the station that owns device id (nil when unknown). The
// device set is fixed at commissioning, so Station is safe to call from
// request goroutines concurrently with ticks.
func (s *Supervisor) Station(id string) *Station {
	if ds, ok := s.states[id]; ok {
		return ds.dev
	}
	return nil
}

// Dispatch routes one inference request through the health-aware router.
// ok=false means the fleet is shedding load.
func (s *Supervisor) Dispatch() (id string, ok bool) {
	id, _, ok = s.router.Dispatch()
	return id, ok
}

// DispatchAvoiding routes one request anywhere except `avoid` (the hedged
// retry: a request's second attempt must never land on the device that just
// stalled or faulted on it) and also reports the chosen device's serving
// status, so the frontend can flag responses produced by a
// Degraded-but-serving accelerator. Routing and the status snapshot come
// from the router's own schedule — safe to call from request goroutines
// concurrently with ticks.
func (s *Supervisor) DispatchAvoiding(avoid string) (id string, status monitor.Status, ok bool) {
	return s.router.DispatchAvoiding(avoid)
}

// DispatchAvoidingErr is DispatchAvoiding with a typed refusal: a failed
// placement returns an error matching ErrNoEligibleDevice explaining whether
// MinServing shedding, total quarantine or the avoided-candidate rule left
// the request nowhere to go. The serving frontend maps it into its own
// sentinel set so both layers' errors stay matchable end to end.
func (s *Supervisor) DispatchAvoidingErr(avoid string) (id string, status monitor.Status, err error) {
	return s.router.DispatchAvoidingErr(avoid)
}

// ReportServingFault feeds one serving-path failure on id — a panic, a
// poisoned or missing response observed by the inference frontend — into the
// device's circuit breaker, exactly as a monitoring-round sensor fault
// would. Enough consecutive serving faults (BreakerOpenAfter, shared with
// the monitoring path) trip the breaker: the device is quarantined and
// leaves the dispatch schedule immediately, without waiting for the next
// monitoring tick to notice. It reports whether this fault tripped the
// breaker.
//
// Like Tick, this belongs to the supervisor's owner goroutine (the serving
// frontend serialises it behind its backend lock).
func (s *Supervisor) ReportServingFault(id string) (tripped bool) {
	ds, ok := s.states[id]
	if !ok || ds.retired || ds.breaker.State != BreakerClosed {
		return false
	}
	tripped = ds.breaker.ObserveRound(true, s.round, s.cfg.BreakerOpenAfter)
	if tripped {
		s.router.Update(s.servingEntries())
	}
	return tripped
}

// Complete retires one in-flight request from id.
func (s *Supervisor) Complete(id string) { s.router.Complete(id) }

// Router exposes the router for drain/in-flight inspection.
func (s *Supervisor) Router() *Router { return s.router }

// Round returns the number of completed fleet ticks.
func (s *Supervisor) Round() int { return s.round }

// Resumed reports whether this supervisor was reconstructed from a journal.
func (s *Supervisor) Resumed() bool { return s.resumes > 0 }

// Unjournaled reports whether a disk fault forced the supervisor into
// memory-only operation: still serving, no longer durable.
func (s *Supervisor) Unjournaled() bool { return s.unjournaled }

// JournalError returns the disk fault that cost the supervisor its journal
// (nil while durable).
func (s *Supervisor) JournalError() error { return s.journalErr }

// CompactionError returns the most recent compaction failure that left the
// WAL healthy (nil after a clean compaction; poisoning failures degrade to
// memory-only instead and show up in JournalError).
func (s *Supervisor) CompactionError() error { return s.compactErr }

// Store exposes the journal store the supervisor was built over (nil when
// memory-only).
func (s *Supervisor) Store() *journal.Store { return s.store }

// DeviceIDs returns the fleet members in commissioning order.
func (s *Supervisor) DeviceIDs() []string { return append([]string(nil), s.order...) }

// Serving returns the IDs currently eligible for traffic.
func (s *Supervisor) Serving() []string {
	entries := s.servingEntries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

// Retired returns the IDs permanently withdrawn from service: repair budget
// exhausted or retirement advised by the strategy ladder. Unlike a
// quarantine, retirement never heals — a fleet whose every device is retired
// is starved for good, which is the signal a sharded frontend uses to drain
// the whole shard instead of waiting for a recovery that cannot come.
func (s *Supervisor) Retired() []string {
	var out []string
	for _, id := range s.order {
		if s.states[id].retired {
			out = append(out, id)
		}
	}
	return out
}

// Quarantined returns the IDs currently not serving: breaker open/half-open
// or retired.
func (s *Supervisor) Quarantined() []string {
	var out []string
	for _, id := range s.order {
		ds := s.states[id]
		if ds.retired || ds.breaker.State != BreakerClosed {
			out = append(out, id)
		}
	}
	return out
}

// Snapshot captures every device's current durable state, keyed by ID —
// the in-memory twin of what a tick record journals. Crash/restart soaks
// compare Snapshot maps between a replayed fleet and an uninterrupted one.
func (s *Supervisor) Snapshot() map[string]DeviceSnapshot {
	out := make(map[string]DeviceSnapshot, len(s.order))
	for _, id := range s.order {
		ds := s.states[id]
		out[id] = DeviceSnapshot{
			Round:       s.round,
			Fingerprint: ds.rt.Monitor().Fingerprint(),
			State:       ds.rt.ExportState(),
			Budget:      ds.budget,
			Breaker:     ds.breaker,
			Retired:     ds.retired,
			Decisions:   append([]RepairDecision(nil), ds.decisions...),
			Cost:        ds.dev.ctr.Snapshot(),
		}
	}
	return out
}

// StatusOf returns the confirmed status of one device (and whether the ID
// is known).
func (s *Supervisor) StatusOf(id string) (monitor.Status, bool) {
	ds, ok := s.states[id]
	if !ok {
		return 0, false
	}
	return ds.rt.Confirmed(), true
}

// RuntimeOf exposes a device's hardened runtime for inspection (read-mostly).
func (s *Supervisor) RuntimeOf(id string) (*health.Runtime, bool) {
	ds, ok := s.states[id]
	if !ok {
		return nil, false
	}
	return ds.rt, true
}
