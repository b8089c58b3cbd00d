// Package netserve is the network-facing tier over the in-process serving
// frontend (internal/serve): the layer that turns "a chaos-gated concurrent
// server over one fleet" into an operable service — multiple serve.Server
// shards (each wrapping its own fleet of self-testing accelerators) behind
// one dispatcher, with per-tenant admission quotas, typed error → HTTP
// status mapping, request-scoped deadlines propagated from client headers,
// bounded retry-with-backoff across shards, and graceful shard drain when a
// fleet supervisor retires its devices mid-traffic.
//
// The request path, outside-in:
//
//   - Validation. A request that never made sense (bad width, oversized
//     batch, missing tenant) is refused with ErrInvalid before touching
//     quota or shard state.
//   - Quota. Each tenant owns a token bucket denominated in batch rows.
//     An empty bucket answers ErrQuota (HTTP 429) — the tenant was never
//     admitted, so the invariant set the soak audits counts it separately.
//   - Dispatch. Consistent hashing of the tenant name over a ring of
//     virtual nodes keeps a tenant's traffic on one shard so its quota
//     pressure and cache locality stay put; a drain moves only the drained
//     shard's tenants. Draining and closed shards are never picked.
//   - Retry. A shard-level fault (ErrNoDevices, ErrOverloaded, ErrFaulted,
//     a shard mid-drain answering ErrClosed) is retried on a different
//     shard after a doubling backoff, at most RetryMax times, while the
//     request's deadline allows. Deadline expiries are never retried, and
//     monitor-class requests are never retried at all: a test-pattern
//     readout preempts real monitoring state on its device, so replaying it
//     elsewhere is not idempotent.
//   - Drain. DrainShard (or a fleet that retires every device mid-traffic,
//     detected on the dispatch-failure path) marks the shard, stops new
//     placements, drains its admitted requests via serve.Close, and the
//     hash ring rebalances its tenants onto the survivors. Close drains
//     every shard the same way.
//
// Every admitted request reaches exactly one terminal, typed outcome —
// Admitted == Completed + Overloaded + Deadlines + Unavailable + Faulted —
// and every frontend answer carries one of the closed set of wire kinds.
// campaign.RunNetSoak drives ~10⁶-request seeded campaigns with tenant
// mixes, fault storms and mid-campaign drains against a live listener to
// hold the tier to that contract.
package netserve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reramtest/internal/fleet"
	"reramtest/internal/hwcost"
	"reramtest/internal/journal"
	"reramtest/internal/monitor"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
	"reramtest/internal/wire"
)

// Config tunes the frontend.
type Config struct {
	// VNodes is the virtual nodes per shard on the hash ring (0 → 16).
	VNodes int
	// Quota is the per-tenant admission quota (zero value disables).
	Quota QuotaConfig
	// RetryMax bounds retries after a shard-level fault: a request makes at
	// most 1+RetryMax placements (0: no retry).
	RetryMax int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt and always cut short by the request deadline (0 → 1ms).
	RetryBackoff time.Duration
	// MaxRows bounds the rows of one request batch (0 → 64).
	MaxRows int
	// DefaultDeadline applies to requests that brought no deadline (0 → 1s).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (0 → 30s).
	MaxDeadline time.Duration
}

// Validate rejects configurations the frontend cannot operate under.
func (c Config) Validate() error {
	if c.VNodes < 0 || c.RetryMax < 0 || c.MaxRows < 0 {
		return fmt.Errorf("netserve: VNodes/RetryMax/MaxRows must be ≥ 0")
	}
	if c.RetryBackoff < 0 || c.DefaultDeadline < 0 || c.MaxDeadline < 0 {
		return fmt.Errorf("netserve: durations must be ≥ 0")
	}
	return c.Quota.Validate()
}

func (c Config) withDefaults() Config {
	if c.VNodes == 0 {
		c.VNodes = 16
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.MaxRows == 0 {
		c.MaxRows = 64
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	return c
}

// ShardSpec describes one shard to commission: its own devices, fleet and
// serving configuration. Shards are independent failure domains — separate
// supervisors, separate journals, separate breakers.
type ShardSpec struct {
	Name    string
	Devices []fleet.Device
	Fleet   fleet.Config
	Serve   serve.Config
	// Store is this shard's durable state (nil: memory-only): the shard
	// journals through a snapshot-compacting store and degrades to
	// memory-only on persistent disk faults instead of failing, surfacing
	// Unjournaled through Status, /v1/healthz and /statsz. It must be empty —
	// New only commissions, and refuses a store that already holds a journal
	// (fleet.ErrStoreHasHistory) rather than restart its rounds at 0.
	Store *journal.Store
}

// Request is one tier-level inference request.
type Request struct {
	Tenant   string
	Priority serve.Priority
	X        *tensor.Tensor
	// Deadline (the zero time: none) is resolved as serve.Deadline does,
	// with Config.DefaultDeadline.
	Deadline time.Time
}

// Result is one tier-level answer.
type Result struct {
	Probs    *tensor.Tensor
	Shard    string
	Device   string
	Status   monitor.Status
	Degraded bool
	Hedged   bool
	Retried  bool // serve-layer retry (faulted primary, same shard)
	Attempts int  // tier-level placements made (1 = no cross-shard retry)
	// Cost is the measured hardware spend of the winning attempt (see
	// serve.Response.Cost). The tier accumulates the same figure into its
	// per-tenant/per-shard cost table, so client-observed spend and the
	// tier's telemetry agree exactly.
	Cost hwcost.Cost
}

// CostStats is the tier's spend telemetry at response granularity: what each
// tenant's completed requests cost, what each shard's completed requests
// cost, and the fleet total. All three views are accumulated under one lock
// from the same response stream, so sum(Tenants) == sum(Shards) == Fleet
// exactly — the identity the network soak gates on. Abandoned hedge attempts
// charge device counters but never complete a response, so they appear in
// device telemetry (serve.Server.CostStats) and not here.
type CostStats struct {
	Fleet   hwcost.Cost            `json:"fleet"`
	Tenants map[string]hwcost.Cost `json:"tenants"`
	Shards  map[string]hwcost.Cost `json:"shards"`
}

// costTable accumulates completed-response spend. One mutex suffices: the
// critical section is seven integer adds per map entry, dwarfed by the
// inference that produced the figures.
type costTable struct {
	mu      sync.Mutex
	tenants map[string]hwcost.Cost
	shards  map[string]hwcost.Cost
	fleet   hwcost.Cost
}

func newCostTable() *costTable {
	return &costTable{tenants: make(map[string]hwcost.Cost), shards: make(map[string]hwcost.Cost)}
}

func (t *costTable) add(tenant, shard string, c hwcost.Cost) {
	if c.IsZero() {
		return
	}
	t.mu.Lock()
	t.tenants[tenant] = t.tenants[tenant].Plus(c)
	t.shards[shard] = t.shards[shard].Plus(c)
	t.fleet.Add(c)
	t.mu.Unlock()
}

func (t *costTable) snapshot() CostStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := CostStats{
		Fleet:   t.fleet,
		Tenants: make(map[string]hwcost.Cost, len(t.tenants)),
		Shards:  make(map[string]hwcost.Cost, len(t.shards)),
	}
	for k, v := range t.tenants {
		out.Tenants[k] = v
	}
	for k, v := range t.shards {
		out.Shards[k] = v
	}
	return out
}

// Stats is a snapshot of the tier's lifetime counters. The invariants the
// network soak audits:
//
//	Received == Invalid + QuotaRejected + ClosedRejected + Admitted
//	Admitted == Completed + Overloaded + Deadlines + Unavailable + Faulted
//	Internal == 0
type Stats struct {
	Received       uint64
	Invalid        uint64
	QuotaRejected  uint64
	ClosedRejected uint64
	Admitted       uint64

	Completed         uint64
	CompletedDegraded uint64
	Overloaded        uint64
	Deadlines         uint64
	Unavailable       uint64 // no eligible device/shard, or a shard closed out from under the last attempt
	Faulted           uint64

	Internal uint64 // untyped errors surfaced to clients — a contract violation

	Retries    uint64 // cross-shard retry placements launched
	AutoDrains uint64 // shards drained because their fleet retired every device
	Drains     uint64 // total shard drains (auto + requested + Close)
}

// Terminal sums the terminal outcomes of admitted requests.
func (st Stats) Terminal() uint64 {
	return st.Completed + st.Overloaded + st.Deadlines + st.Unavailable + st.Faulted
}

// shard is one serve.Server under the tier.
type shard struct {
	name     string
	idx      int
	srv      *serve.Server
	draining atomic.Bool
	inflight atomic.Int64
	drainOne sync.Once
	drainErr error
}

// live reports whether the dispatcher may place new requests here.
func (sh *shard) live() bool { return !sh.draining.Load() }

// ringSlot is one virtual node on the consistent-hash ring.
type ringSlot struct {
	hash uint64
	idx  int // shard index
}

// placement names the device that served an answer.
type placement struct{ shard, device string }

// Frontend is the sharded network-facing tier. All exported methods are safe
// for concurrent use.
type Frontend struct {
	cfg    Config
	shards []*shard
	byName map[string]*shard
	ring   []ringSlot
	inDim  int

	quotas *quotaTable
	costs  *costTable

	// X-Served-By header values by placement, built once in New
	served map[placement][]string

	// *wire.Batch destinations for /v1/infer bodies, (·, inDim) each
	batches sync.Pool

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	received, invalid, quotaRejected, closedRejected atomic.Uint64
	admitted, completed, completedDegraded           atomic.Uint64
	overloaded, deadlines, unavailable, faulted      atomic.Uint64
	internal, retries, autoDrains, drains            atomic.Uint64
}

// New commissions the tier: one serve.Server per spec, the quota table, and
// the dispatch ring. Every shard must agree on the model input width — a
// request is routable to any of them.
func New(specs []ShardSpec, cfg Config) (*Frontend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(specs) == 0 {
		return nil, errors.New("netserve: no shards")
	}
	f := &Frontend{
		cfg:    cfg,
		byName: make(map[string]*shard, len(specs)),
		quotas: newQuotaTable(cfg.Quota, nil),
		costs:  newCostTable(),
		served: make(map[placement][]string),
	}
	for i, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("netserve: shard %d has no name", i)
		}
		if _, dup := f.byName[spec.Name]; dup {
			return nil, fmt.Errorf("netserve: duplicate shard name %q", spec.Name)
		}
		if len(spec.Devices) == 0 {
			return nil, fmt.Errorf("netserve: shard %q has no devices", spec.Name)
		}
		inDim := spec.Devices[0].Reference().InDim()
		if i == 0 {
			f.inDim = inDim
		} else if inDim != f.inDim {
			return nil, fmt.Errorf("netserve: shard %q input width %d differs from %d — requests could not rebalance across shards",
				spec.Name, inDim, f.inDim)
		}
		// degraded commissioning (ErrUnjournaled) still yields a live shard —
		// it serves memory-only and flags itself via Status
		srv, err := serve.New(spec.Devices, spec.Fleet, spec.Serve, spec.Store)
		if err != nil && !errors.Is(err, fleet.ErrUnjournaled) {
			return nil, fmt.Errorf("netserve: commission shard %q: %w", spec.Name, err)
		}
		for _, d := range spec.Devices {
			f.served[placement{spec.Name, d.ID()}] = []string{spec.Name + "/" + d.ID()}
		}
		sh := &shard{name: spec.Name, idx: i, srv: srv}
		f.shards = append(f.shards, sh)
		f.byName[spec.Name] = sh
	}
	// the ring is built once: draining shards are skipped at lookup time, so
	// membership changes never rebuild it (and never race lookups)
	for i, sh := range f.shards {
		for v := 0; v < cfg.VNodes; v++ {
			f.ring = append(f.ring, ringSlot{hash: hash64(sh.name + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(f.ring, func(a, b int) bool { return f.ring[a].hash < f.ring[b].hash })
	f.batches.New = func() any { return wire.NewBatch(f.inDim) }
	return f, nil
}

// servedBy is the X-Served-By value for an answer from device on shard.
func (f *Frontend) servedBy(shard, device string) []string {
	if v, ok := f.served[placement{shard, device}]; ok {
		return v
	}
	return []string{shard + "/" + device}
}

// hash64 is FNV-1a over s, finished with murmur3's fmix64. Bare FNV-1a
// barely moves its high bits for keys that differ only in their last bytes,
// and the ring orders by the whole word: without the avalanche every
// "tenant-NN" lands in one arc and one shard takes the fleet's traffic.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pick chooses the shard for tenant, skipping avoided indices and non-live
// shards. nil means no live shard can take the request.
func (f *Frontend) pick(tenant string, avoided map[int]bool) *shard {
	if len(f.ring) == 0 {
		return nil
	}
	h := hash64(tenant)
	pos := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= h })
	seen := make(map[int]bool, len(f.shards))
	for k := 0; k < len(f.ring); k++ {
		slot := f.ring[(pos+k)%len(f.ring)]
		if seen[slot.idx] {
			continue
		}
		seen[slot.idx] = true
		sh := f.shards[slot.idx]
		if sh.live() && !avoided[slot.idx] {
			return sh
		}
		if len(seen) == len(f.shards) {
			break
		}
	}
	return nil
}

// retryable reports whether err may be retried on another shard for a
// request of the given priority. Monitor-class requests are never retried:
// a test-pattern readout preempts the monitoring state of the device it
// lands on, so replaying it elsewhere is not idempotent. Deadline expiries
// are never retried for anyone.
func retryable(err error, prio serve.Priority) bool {
	if prio == serve.Monitor {
		return false
	}
	switch {
	case errors.Is(err, serve.ErrDeadline):
		return false
	case errors.Is(err, serve.ErrNoDevices), errors.Is(err, serve.ErrOverloaded),
		errors.Is(err, serve.ErrFaulted), errors.Is(err, serve.ErrClosed):
		return true
	}
	return false
}

// Do runs one request through the tier: validation, quota, dispatch, bounded
// cross-shard retry. It blocks until the request reaches a terminal typed
// outcome. Safe for concurrent use.
func (f *Frontend) Do(ctx context.Context, req Request) (Result, error) {
	f.received.Add(1)
	if f.closed.Load() {
		f.closedRejected.Add(1)
		return Result{}, fmt.Errorf("netserve: rejected at the door: %w", ErrFrontendClosed)
	}
	if req.Tenant == "" {
		f.invalid.Add(1)
		return Result{}, fmt.Errorf("netserve: request names no tenant: %w", ErrInvalid)
	}
	if req.X == nil || req.X.Rank() != 2 || req.X.Dim(1) != f.inDim {
		f.invalid.Add(1)
		return Result{}, fmt.Errorf("netserve: input batch must be (N, %d): %w", f.inDim, ErrInvalid)
	}
	rows := req.X.Dim(0)
	if rows < 1 || rows > f.cfg.MaxRows {
		f.invalid.Add(1)
		return Result{}, fmt.Errorf("netserve: batch of %d rows outside [1, %d]: %w", rows, f.cfg.MaxRows, ErrInvalid)
	}
	if !f.quotas.Allow(req.Tenant, float64(rows)) {
		f.quotaRejected.Add(1)
		return Result{}, fmt.Errorf("netserve: tenant %q over admission quota: %w", req.Tenant, ErrQuota)
	}
	f.admitted.Add(1)

	// one deadline for the request and its cross-shard retries
	deadline := serve.Deadline(ctx, req.Deadline, f.cfg.DefaultDeadline)
	var lastErr error
	avoided := make(map[int]bool, 2)
	backoff := f.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		sh := f.pick(req.Tenant, avoided)
		if sh == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("netserve: no live shard for tenant %q: %w", req.Tenant, serve.ErrNoDevices)
			}
			break
		}
		sh.inflight.Add(1)
		resp, err := sh.srv.DoBy(ctx, req.X, req.Priority, deadline)
		sh.inflight.Add(-1)
		if err == nil {
			f.completed.Add(1)
			if resp.Degraded {
				f.completedDegraded.Add(1)
			}
			f.costs.add(req.Tenant, sh.name, resp.Cost)
			return Result{
				Probs:    resp.Probs,
				Shard:    sh.name,
				Device:   resp.Device,
				Status:   resp.Status,
				Degraded: resp.Degraded,
				Hedged:   resp.Hedged,
				Retried:  resp.Retried,
				Attempts: attempt + 1,
				Cost:     resp.Cost,
			}, nil
		}
		lastErr = fmt.Errorf("netserve: shard %s: %w", sh.name, err)
		if errors.Is(err, serve.ErrNoDevices) {
			// the shard had nothing to offer — if its fleet has retired every
			// device this starvation is permanent and the shard is drained out
			// of the ring; a transient quarantine is left to heal in place
			f.noteStarved(sh)
		}
		if attempt >= f.cfg.RetryMax || !retryable(err, req.Priority) || ctx.Err() != nil || !time.Now().Before(deadline) {
			break
		}
		avoided[sh.idx] = true
		f.retries.Add(1)
		if !sleepCtx(ctx, deadline, backoff) {
			break
		}
		backoff *= 2
	}
	f.countTerminal(lastErr)
	return Result{}, lastErr
}

// countTerminal attributes exactly one terminal counter per admitted request.
func (f *Frontend) countTerminal(err error) {
	switch {
	case errors.Is(err, serve.ErrDeadline):
		f.deadlines.Add(1)
	case errors.Is(err, serve.ErrOverloaded):
		f.overloaded.Add(1)
	case errors.Is(err, serve.ErrFaulted):
		f.faulted.Add(1)
	case errors.Is(err, serve.ErrNoDevices), errors.Is(err, serve.ErrClosed):
		f.unavailable.Add(1)
	default:
		// not part of the typed contract; counted so the soak can gate on it
		f.internal.Add(1)
	}
}

// sleepCtx sleeps for d, or until ctx is done or the deadline passes; false
// means the sleep was cut short.
func sleepCtx(ctx context.Context, deadline time.Time, d time.Duration) bool {
	left := time.Until(deadline)
	t := time.NewTimer(min(d, left))
	defer t.Stop()
	select {
	case <-t.C:
		return d < left
	case <-ctx.Done():
		return false
	}
}

// noteStarved checks whether a shard that just answered ErrNoDevices is
// permanently starved (every device retired by its fleet supervisor) and if
// so drains it asynchronously — the graceful-rebalance path for mid-traffic
// retirement.
func (f *Frontend) noteStarved(sh *shard) {
	if sh.draining.Load() || f.closed.Load() {
		return
	}
	if len(sh.srv.Retired()) < len(sh.srv.Devices()) {
		return // at least one device could still come back
	}
	f.autoDrains.Add(1)
	go f.drainShard(sh)
}

// drainShard gracefully retires one shard: mark it (the dispatcher stops
// placing new requests), then close its server — serve.Close answers every
// already-admitted request before returning. Requests that picked the shard
// in the instant before the mark land on serve.ErrClosed and are retried on
// a neighbouring shard.
func (f *Frontend) drainShard(sh *shard) error {
	sh.drainOne.Do(func() {
		sh.draining.Store(true)
		f.drains.Add(1)
		sh.drainErr = sh.srv.Close()
	})
	return sh.drainErr
}

// DrainShard gracefully drains one shard by name and returns its drain
// result. Idempotent; concurrent callers share one drain.
func (f *Frontend) DrainShard(name string) error {
	sh, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("netserve: unknown shard %q", name)
	}
	return f.drainShard(sh)
}

// Tick runs one supervised monitoring round on every live shard and returns
// the per-shard results. Draining shards are skipped — their supervisors are
// already shutting down.
func (f *Frontend) Tick() map[string][]fleet.RoundResult {
	out := make(map[string][]fleet.RoundResult, len(f.shards))
	for _, sh := range f.shards {
		if !sh.live() {
			continue
		}
		res, _ := sh.srv.Tick() // journaling errors surface via shard status
		out[sh.name] = res
	}
	return out
}

// ShardStatus is one shard's operational snapshot.
type ShardStatus struct {
	Name        string
	Draining    bool
	InFlight    int64
	Unjournaled bool // shard lost its journal and is running memory-only
	Serving     []string
	Quarantined []string
	Retired     []string
	Stats       serve.Stats
}

// Status snapshots every shard.
func (f *Frontend) Status() []ShardStatus {
	out := make([]ShardStatus, 0, len(f.shards))
	for _, sh := range f.shards {
		out = append(out, ShardStatus{
			Name:        sh.name,
			Draining:    sh.draining.Load(),
			InFlight:    sh.inflight.Load(),
			Unjournaled: sh.srv.Unjournaled(),
			Serving:     sh.srv.Serving(),
			Quarantined: sh.srv.Quarantined(),
			Retired:     sh.srv.Retired(),
			Stats:       sh.srv.Stats(),
		})
	}
	return out
}

// ShardNames returns the shards in commissioning order.
func (f *Frontend) ShardNames() []string {
	out := make([]string, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.name
	}
	return out
}

// InDim reports the model input width every shard serves.
func (f *Frontend) InDim() int { return f.inDim }

// Stats snapshots the tier's lifetime counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		Received:          f.received.Load(),
		Invalid:           f.invalid.Load(),
		QuotaRejected:     f.quotaRejected.Load(),
		ClosedRejected:    f.closedRejected.Load(),
		Admitted:          f.admitted.Load(),
		Completed:         f.completed.Load(),
		CompletedDegraded: f.completedDegraded.Load(),
		Overloaded:        f.overloaded.Load(),
		Deadlines:         f.deadlines.Load(),
		Unavailable:       f.unavailable.Load(),
		Faulted:           f.faulted.Load(),
		Internal:          f.internal.Load(),
		Retries:           f.retries.Load(),
		AutoDrains:        f.autoDrains.Load(),
		Drains:            f.drains.Load(),
	}
}

// CostStats snapshots the tier's per-tenant/per-shard/fleet spend telemetry.
func (f *Frontend) CostStats() CostStats { return f.costs.snapshot() }

// DeviceCosts snapshots every device's cumulative per-class spend, keyed
// shard then device ID. Unlike CostStats (response granularity), this reads
// the live device counters, so it also includes monitor and repair work and
// the serving spend of abandoned hedge attempts.
func (f *Frontend) DeviceCosts() map[string]map[string]hwcost.CostBreakdown {
	out := make(map[string]map[string]hwcost.CostBreakdown, len(f.shards))
	for _, sh := range f.shards {
		out[sh.name] = sh.srv.CostStats()
	}
	return out
}

// Close drains the whole tier: new requests are refused with
// ErrFrontendClosed, every shard drains concurrently (each admitted request
// still reaches its terminal outcome), and the first error any drain
// produced is returned. Idempotent and safe for concurrent callers — all of
// them share the one drain and its result.
func (f *Frontend) Close() error {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		errs := make([]error, len(f.shards))
		var wg sync.WaitGroup
		for i, sh := range f.shards {
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				errs[i] = f.drainShard(sh)
			}(i, sh)
		}
		wg.Wait()
		f.closeErr = errors.Join(errs...)
	})
	return f.closeErr
}
